import hashlib
import io
import random
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinecolor import colorer, harness, matcher, oracle
from onlinecolor import stream as streammod
from onlinecolor.profiles import ConstantsProfile
from onlinecolor.rounder import RoundingConfig
from onlinecolor.stream import (
    Arrivals,
    ArrivalStream,
    EdgeArrival,
    StreamError,
    emit_stream,
    gen_complete_bipartite,
    gen_erdos_renyi,
    gen_lower_bound_tree,
    gen_regular,
    make_stream,
    parse_stream,
    reorder,
    with_range_lists,
    with_uniform_x,
)


def test_parse_minimal_path():
    s = parse_stream("n=3 dmax=2\ne 0 1\ne 1 2\n")
    assert s.m == 2 and s.n == 3 and s.delta_bound == 2
    assert s.arrivals[0].pair == (0, 1)


def test_parse_comments_and_blank_lines():
    s = parse_stream("# header next\nn=2 dmax=1\n\n# an edge\ne 0 1\n")
    assert s.m == 1


def test_parse_whitespace_accepted():
    # pinned before lines were split once: surrounding whitespace, runs of
    # spaces and a trailing tab are accepted; '#' lines are comments even
    # when they look like edges
    text = ("\tn=5  dmax=2 \n  e 0 1  \ne   1    2\t\n#e 0 2\n   # e 0 3\n"
            "e 2 3 x=0.5\t L=3,1 \n \t e 3 4\tL=1,3\n")
    s = parse_stream(text)
    assert (s.n, s.delta_bound) == (5, 2)
    assert [(e.u, e.v, e.x, e.colors) for e in s.arrivals] == [
        (0, 1, None, None), (1, 2, None, None), (2, 3, 0.5, (1, 3)), (3, 4, None, (1, 3))]
    assert s.arrivals[2].colors is not s.arrivals[3].colors  # different L= text


def test_parse_annotations():
    s = parse_stream("n=4 dmax=2\ne 0 1 x=0.25 L=1,5,9\ne 2 3 L=9,5,1\n")
    assert s.arrivals[0].x == 0.25
    assert s.arrivals[0].colors == (1, 5, 9)
    assert s.arrivals[1].colors == (1, 5, 9)  # normalized to sorted


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n=2 dmax=1\ne 0 0\n", "self-loop"),
        ("n=3 dmax=2\ne 0 1\ne 1 0\n", "duplicate"),
        ("n=3 dmax=1\ne 0 1\ne 0 2\n", "degree"),
        ("n=3 dmax=2\ne 0 1 x=0.6\ne 0 2 x=0.6\n", "fractional sum"),
        ("n=2 dmax=1\ne 0 5\n", ">= n"),
        ("n=2 dmax=1\nedge 0 1\n", "expected"),
        ("n=2 dmax=1\ne\t0\t1\n", "expected"),
        ("n=2 dmax=1\n  e\t0 1\n", "expected"),
        ("n=2 dmax=1\ne\n", "expected"),
        ("n=2 dmax=1\ne   \n", "expected"),
        ("n=2 dmax=1\ne0 1\n", "expected"),
        ("n=2 dmax=1\n 0 1\n", "expected"),
        ("e 0 1\n", "header"),
        ("n=2 dmax=1\ne 0 1 L=3,3\n", "duplicate color"),
        ("n=2 dmax=1\ne -1 1\n", "negative vertex id"),
        ("n=2 dmax=1\ne 0 one\n", "non-integer vertex id"),
        ("n=2 dmax=1\ne 0\n", "two endpoints"),
        ("n=2 dmax=1\ne 0 1 x=1.5\n", "outside"),
        ("n=2 dmax=1\ne 0 1 x=abc\n", "bad fractional value"),
        ("n=2 dmax=1\ne 0 1 L=0,2\n", "must be positive"),
        ("n=2 dmax=1\ne 0 1 L=a,b\n", "bad color list"),
        ("n=2 dmax=1\ne 0 1 y=2\n", "unknown annotation"),
        ("n=2 dmax=1\n e 0 1 x=0.5 L=2,x \n", "bad color list"),
        ("n=2 dmax=1\ne  0 1\tL=1,2  x=2\t\n", "outside"),
        ("n=2 dmax=1\ne 0 1 L=2,1 L=1,1\n", "duplicate color"),
        ("n=2 dmax=1\ne 0 1 x=0.1 x=0.9\n", "line 2: repeated x= annotation"),
        ("n=3 dmax=2\ne 0 1\ne 1 2 L=1,2 L=7\n", "line 3: repeated L= annotation"),
        ("n=3 dmax=2 n=4\ne 0 1\n", "line 1: repeated header key 'n'"),
        ("n=2 dmax\ne 0 1\n", "bad header token"),
        ("n=2 dmax=x\ne 0 1\n", "non-integer header value"),
        ("n=2 m=1\ne 0 1\n", "header must be"),
        ("n=-1 dmax=1\n", "non-negative"),
        ("# only a comment\n", "missing header"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(StreamError, match=fragment):
        parse_stream(text)


def test_parse_reads_only_ascii_integers():
    # text that Python's int() and float() read, but the format does not
    cases = [
        ("n=1_000 dmax=1\ne 0 1\n", "non-integer header value"),
        ("n=20 dmax=1\ne 0 1_0\n", "non-integer vertex id"),
        ("n=3 dmax=1\ne \u0661 2\n", "non-integer vertex id"),  # an Arabic-Indic digit
        ("n=2 dmax=1\ne 0 1 L=1,,2\n", "bad color list"),
        ("n=2 dmax=1\ne 0 1 L=1,\n", "bad color list"),
        ("n=2 dmax=1\ne 0 1 x=0.2_5\n", "bad fractional value"),
        ("n=2 dmax=1\ne 0 1 x=0.\u0665\n", "bad fractional value"),
        ("n=2 dmax=1\ne -1 1\n", "negative vertex id"),
    ]
    for text, fragment in cases:
        with pytest.raises(StreamError, match=fragment):
            parse_stream(text)
    # a sign and an empty list are still the format's
    s = parse_stream("n=+2 dmax=1\ne +0 1 x=0.25 L=\n")
    assert (s.n, s.u, s.x, s.palettes) == (2, (0,), (0.25,), ((),))


def _format_int(text):
    """An <int> of the format: ASCII digits with an optional leading sign."""
    body = text[1:] if text[:1] in ("+", "-") else text
    if not (body.isascii() and body.isdigit()):
        raise ValueError(text)
    return int(text)


def _reference_parse(text):
    """The file format as the stream docstring states it, read one line at a
    time into EdgeArrival records, then checked arrival by arrival; returns
    (n, dmax, arrivals, L= text per arrival) or raises StreamError."""
    header, arrivals, texts = None, [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            fields = {}
            for tok in line.split():
                key, eq, val = tok.partition("=")
                if not eq:
                    raise StreamError(f"line {lineno}: bad header token {tok!r}")
                try:
                    value = _format_int(val)
                except ValueError:
                    raise StreamError(f"line {lineno}: non-integer header value {tok!r}") from None
                if key in fields:
                    raise StreamError(f"line {lineno}: repeated header key {key!r}")
                fields[key] = value
            if sorted(fields) != ["dmax", "n"]:
                raise StreamError(f"line {lineno}: header must be 'n=<int> dmax=<int>'")
            header = (fields["n"], fields["dmax"])
            continue
        if not line.startswith("e "):
            raise StreamError(f"line {lineno}: expected 'e <u> <v> ...', got {line!r}")
        toks = line.split()
        if len(toks) < 3:
            raise StreamError(f"line {lineno}: edge line needs two endpoints")
        try:
            u, v = _format_int(toks[1]), _format_int(toks[2])
        except ValueError:
            raise StreamError(f"line {lineno}: non-integer vertex id") from None
        x = colors = text_l = None
        for tok in toks[3:]:
            if tok[:2] == "x=":
                try:
                    if not tok.isascii() or "_" in tok:
                        raise ValueError(tok)
                    value = float(tok[2:])
                except ValueError:
                    raise StreamError(f"line {lineno}: bad fractional value {tok!r}") from None
                if x is not None:
                    raise StreamError(f"line {lineno}: repeated x= annotation")
                x = value
            elif tok[:2] == "L=":
                try:
                    listed = [_format_int(c) for c in tok[2:].split(",")] if tok[2:] else []
                except ValueError:
                    raise StreamError(f"line {lineno}: bad color list {tok!r}") from None
                if len(set(listed)) < len(listed):
                    raise StreamError(f"line {lineno}: duplicate color in list")
                if colors is not None:
                    raise StreamError(f"line {lineno}: repeated L= annotation")
                colors, text_l = tuple(sorted(listed)), tok
            else:
                raise StreamError(f"line {lineno}: unknown annotation {tok!r}")
        arrivals.append(EdgeArrival(len(arrivals) + 1, u, v, x, colors))
        texts.append(text_l)
    if header is None:
        raise StreamError("missing header line 'n=<int> dmax=<int>'")
    n, dmax = header
    if n < 0 or dmax < 0:
        raise StreamError("n and dmax must be non-negative")
    edges, degree, frac = set(), Counter(), Counter()
    for t, u, v, x, colors in arrivals:
        if u == v:
            raise StreamError(f"t={t}: self-loop at vertex {u}")
        if min(u, v) < 0:
            raise StreamError(f"t={t}: negative vertex id")
        if max(u, v) >= n:
            raise StreamError(f"t={t}: vertex id >= n={n}")
        if x is not None and not 0.0 <= x <= 1.0:
            raise StreamError(f"t={t}: x={x} outside [0, 1]")
        if colors is not None and any(c <= 0 for c in colors):
            raise StreamError(f"t={t}: color ids must be positive")
        if frozenset((u, v)) in edges:
            raise StreamError(f"t={t}: duplicate edge {(min(u, v), max(u, v))} (parallel edges disallowed)")
        edges.add(frozenset((u, v)))
        for w in (u, v):
            degree[w] += 1
        for w in (u, v):
            if degree[w] > dmax:
                raise StreamError(f"t={t}: degree of vertex {w} exceeds dmax={dmax}")
        if x is not None:
            for w in (u, v):
                frac[w] += x
            for w in (u, v):
                if frac[w] > 1.0 + 1e-9:
                    raise StreamError(f"t={t}: fractional sum {frac[w]:.12g} > 1 at vertex {w}")
    return n, dmax, arrivals, texts


_SEP = st.sampled_from([" ", " ", " ", "  ", "\t", " \t"])
_GOOD_L = ["L=1,2,3", "L=3,1,2", "L=5", "L=2,7", "L="]
_BAD_TOKENS = ["x=1.5", "x=abc", "y=2", "L=4,4", "L=0,2", "L=a,b", "L=-1,3", "x=0.5", "L=5",
               "L=1,,2", "L=1,", "x=0.2_5"]


def _rare(draw) -> bool:
    # one value in the middle: hypothesis leans towards the ends of a range
    return draw(st.integers(0, 23)) == 13


@st.composite
def stream_texts(draw):
    """Stream texts, about half of them valid: blank and comment lines,
    leading spaces and tabs, x=/L= annotations with shared and distinct L=
    texts, and now and then a malformed token, a bad line, a repeated
    annotation or a bad header."""
    n = draw(st.integers(3, 9))
    dmax = draw(st.integers(3, 8))
    head = [f"n={n}", f"dmax={dmax}"]
    if draw(st.booleans()):
        head.reverse()
    if _rare(draw):
        head.append(draw(st.sampled_from(["n=3", "dmax=1", "m=2", "dmax", "n=x"])))
    if _rare(draw):
        head = [draw(st.sampled_from(["n=-1", "dmax=-2"])), head[1]]
    lines = [] if _rare(draw) else [draw(_SEP).join(head)]
    sep = draw(_SEP)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=frozenset, max_size=12))
    for u, v in edges:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  ", "\t", "# note", "  #e 0 1", "#"])))
        if _rare(draw):
            u, v = draw(st.sampled_from([(u, u), (v, u), (-1, v), (u, n), *edges]))
        toks = ["e", str(u), str(v)]
        if draw(st.booleans()):
            toks.append(draw(st.sampled_from(["x=0.25", "x=0", "x=0.5"])))
        if draw(st.booleans()):
            toks.append(draw(st.sampled_from(_GOOD_L)))
        if _rare(draw):
            toks.append(draw(st.sampled_from(_BAD_TOKENS)))
        if draw(st.booleans()):
            toks[3:] = reversed(toks[3:])
        line = "e " + sep.join(toks[1:])  # "e" then a space, as the format asks
        if _rare(draw):
            line = draw(_SEP).join(toks)
        if _rare(draw):
            line = draw(st.sampled_from([line.replace("e", "e0", 1), line.replace("e ", "edge ", 1),
                                         line.replace("e ", "e\t", 1), "e", f"e {u}"]))
        lines.append(draw(st.sampled_from(["", "", "", " ", "\t", "  "])) + line)
    if _rare(draw):
        lines.insert(0, "# a comment first")
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@settings(max_examples=500)
@given(stream_texts())
def test_parse_matches_reference(text):
    _assert_parse_matches_reference(text)


def _assert_parse_matches_reference(text):
    """``parse_stream(text)`` gives the reference's columns or its error,
    and its palettes share one tuple exactly where their L= texts are equal."""
    try:
        want = _reference_parse(text)
    except StreamError as exc:
        with pytest.raises(StreamError) as got:
            parse_stream(text)
        assert str(got.value) == str(exc)
        return
    s = parse_stream(text)
    n, dmax, arrivals, texts = want
    assert (s.n, s.delta_bound) == (n, dmax)
    assert s.u == tuple(e.u for e in arrivals) and s.v == tuple(e.v for e in arrivals)
    xs = tuple(e.x for e in arrivals)
    assert s.x == (xs if any(x is not None for x in xs) else None)
    palettes = tuple(e.colors for e in arrivals)
    assert s.palettes == (palettes if any(p is not None for p in palettes) else None)
    assert list(s.arrivals) == arrivals
    # equal L= text, one tuple; different text, different tuples (but the
    # empty tuple, which is one object)
    for i, ti in enumerate(texts):
        for j, tj in enumerate(texts[:i]):
            if ti is not None and tj is not None:
                same = s.palettes[i] is s.palettes[j]
                assert same == (ti == tj or s.palettes[i] == () == s.palettes[j]), (ti, tj)


_L12 = "e 0 1 L=1,2\n"  # a line ending in an L= text, for the lines after it to repeat


@pytest.mark.parametrize("lines", [
    # the text again on the next line, and on a line far after it, across
    # other texts and plain lines
    [_L12, "e 1 2 L=1,2\n", "e 2 3 L=1,2\n"],
    [_L12, "e 1 2 L=3\n", "e 2 3\n", "# L=3\n", *(f"e 4 {w} L=4,{w}\n" for w in range(5, 9)),
     "\n", "e 3 4 L=1,2\n", "e 5 6 L=3\n", "e 6 7 L=1,2\n"],
    # after a tab, a run of spaces, an x= token, or whitespace alone
    [_L12, "e 1 2\tL=1,2\n", "e 2 3     L=1,2\n", "e 3 4 \t L=1,2\n"],
    [_L12, "e 1 2 x=0.5 L=1,2\n", "e 2 3 L=1,2 x=0.25\n", "e 3 4 L=1,2\n"],
    [_L12, "  L=1,2\n"],
    [_L12, "\tL=1,2\n"],
    [_L12, "L=1,2\n"],
    # near misses: the text after a character that is not whitespace, or
    # twice on one line
    [_L12, "e 1 2 xL=1,2\n"],
    [_L12, "e 1 2 ,L=1,2\n"],
    [_L12, "e 1 2 L=1,2 L=1,2\n"],
    [_L12, "e 1 2 L=3,1,2\n", "e 2 3 L=1,2\n", "e 3 4 L=11,2\n"],
    ["e 0 1 L=\n", "e 1 2 L=\n", "e 2 3 xL=\n"],
], ids=["consecutive", "far apart", "after whitespace", "after x", "spaces alone", "tab alone",
        "text alone", "after x char", "after comma", "twice", "longer texts", "empty list"])
@pytest.mark.parametrize("chunk", [1, streammod.PARSE_CHUNK])
def test_repeated_palette_texts_match_the_reference(lines, chunk):
    # a line that ends with the last L= text read is split only before it,
    # within a chunk and across chunks, and gives str.split()'s tokens
    with mock.patch.object(streammod, "PARSE_CHUNK", chunk):
        _assert_parse_matches_reference("n=9 dmax=8\n" + "".join(lines))


_BIG_ID = 123456789012345678  # 18 digits: still canonical


@st.composite
def canonical_texts(draw, min_edges=0):
    """Canonical text (a header, then only "e <u> <v>" lines): mostly a valid
    simple graph, now and then an arrival that fails validation."""
    n = draw(st.integers(9 if min_edges else 2, 14))
    pairs = [(a, b) for a in range(n) for b in range(n) if a < b]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=frozenset, min_size=min_edges,
                          max_size=40))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    degree = Counter(w for e in edges for w in e)
    dmax = max(degree.values(), default=0) + draw(st.integers(0, 1))
    if _rare(draw):
        bad = draw(st.sampled_from([(1, 1), (0, n), (_BIG_ID, 0), (0, 1), (1, 0)]))
        edges.insert(draw(st.integers(0, len(edges))), bad)
    if _rare(draw):
        dmax = 0
    return f"n={n} dmax={dmax}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def _edge_ids(text):
    """(start, end) of every vertex id on an edge line of ``text``."""
    spans, pos = [], text.index("\n") + 1
    while pos < len(text):
        end = text.index("\n", pos)
        a = pos + 2
        b = text.index(" ", a)
        spans += [(a, b), (b + 1, end)]
        pos = end + 1
    return spans


_EDITS = ["leading zero", "plus", "tab", "trailing space", "19 digits", "5000 digits",
          "crlf", "line break", "no final newline", "comment", "spaced palette", "dmax first"]
# the line breaks of splitlines() other than "\n" and "\r\n"
_BREAKS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# whitespace that a line of splitlines() can hold: runs of spaces, a tab,
# the one other ASCII kind and two that are not ASCII
_SPACES = [" ", "   ", "\t", "\x1f", "\xa0", "\u3000"]
# a canonical prefix longer than this spans more than three chunks of the
# largest size test_canonical_and_line_parses_agree draws
_LONG_PREFIX = 150


@st.composite
def edited_texts(draw):
    """(text, first): canonical text and None, or about half the time the
    same text with one edit that makes it non-canonical, on line ``first``
    (0-based) or a later one.  One edit in four is late: it follows a
    canonical prefix of more than _LONG_PREFIX characters."""
    late = draw(st.integers(0, 7)) == 0
    text = draw(canonical_texts(min_edges=30 if late else 0))
    if not late and not draw(st.booleans()):
        return text, None
    if not late:
        return _one_edit(draw, text, draw(st.sampled_from(_EDITS))), 0
    lines = text.splitlines(keepends=True)
    first = next(k for k in range(len(lines)) if len("".join(lines[:k])) > _LONG_PREFIX)
    return _one_edit(draw, text, draw(st.sampled_from(_EDITS[:-1])), first), first


def _one_edit(draw, text, edit, first=0):
    """``text`` with the named edit, on line ``first`` or a later one (a
    "dmax first" edit needs ``first`` 0); an edit with nothing to change (no
    edge line) drops the final newline instead."""
    lines = text.splitlines(keepends=True)
    offset = len("".join(lines[:first]))
    ids = [(a, b) for a, b in _edge_ids(text) if a >= offset]
    if edit in ("leading zero", "plus", "19 digits", "5000 digits") and ids:
        a, b = draw(st.sampled_from(ids))
        token = {"leading zero": "0" + text[a:b], "plus": "+" + text[a:b],
                 "19 digits": str(10 ** 18 + draw(st.integers(0, 99))),
                 "5000 digits": "7" * 5000}[edit]
        return text[:a] + token + text[b:]
    if edit == "tab" and len(lines) > max(first, 1):
        k = draw(st.integers(max(first, 1), len(lines) - 1))
        spaces = [i for i, ch in enumerate(lines[k]) if ch == " "]
        i = draw(st.sampled_from(spaces))
        lines[k] = lines[k][:i] + "\t" + lines[k][i + 1:]
        return "".join(lines)
    if edit == "trailing space":
        k = draw(st.integers(first, len(lines) - 1))
        lines[k] = lines[k][:-1] + " \n"
        return "".join(lines)
    if edit == "crlf":
        return text[:offset] + text[offset:].replace("\n", "\r\n")
    if edit == "line break":
        # inside a line or at its start; an "\r" put before the "\n" makes a CRLF
        k = draw(st.integers(first, len(lines) - 1))
        i = draw(st.integers(0, len(lines[k]) - 1))
        lines[k] = lines[k][:i] + draw(st.sampled_from(_BREAKS)) + lines[k][i:]
        return "".join(lines)
    if edit == "comment":
        lines.insert(draw(st.integers(max(first, 1), len(lines))), "# a note\n")
        return "".join(lines)
    if edit == "spaced palette" and len(lines) > max(first, 1):
        # an L= token with whitespace inside it or right after it
        k = draw(st.integers(max(first, 1), len(lines) - 1))
        token = "L=" + ",".join(map(str, draw(st.lists(st.integers(1, 9), max_size=4))))
        i = draw(st.integers(2, len(token)))
        token = token[:i] + draw(st.sampled_from(_SPACES)) + token[i:]
        lines[k] = lines[k][:-1] + " " + token + "\n"
        return "".join(lines)
    if edit == "dmax first":
        n, dmax = lines[0].split()
        return "".join([f"{dmax} {n}\n"] + lines[1:])
    return text[:-1]


@settings(max_examples=400)
@given(edited_texts(), st.integers(1, 48))
def test_canonical_and_line_parses_agree(case, chunk):
    # the text and a file of it give the reference's columns or its error.
    # Chunks are read as canonical text up to the first that is not, which
    # the line reader reads with every later one, numbering lines from the
    # whole text's start.  The chunks are small, so their cuts fall after
    # any line, and a late edit's prefix spans several of them.
    text, first = case
    line_reader = streammod._read_lines
    for source in (text, io.StringIO(text)):
        entered = []  # lines read when the line reader took each chunk

        def spy(piece, cols):
            entered.append(cols.lines)
            line_reader(piece, cols)

        with mock.patch.object(streammod, "PARSE_CHUNK", chunk), \
                mock.patch.object(streammod, "_read_lines", spy):
            try:
                want = _reference_parse(text)
            except StreamError as exc:
                with pytest.raises(StreamError) as got:
                    parse_stream(source)
                assert str(got.value) == str(exc)
            else:
                s = parse_stream(source)
                n, dmax, arrivals, _ = want
                palettes = tuple(e.colors for e in arrivals)
                assert (s.n, s.delta_bound, s.x) == (n, dmax, None)
                assert s.palettes == (palettes if any(p is not None for p in palettes) else None)
                assert s.u == tuple(e.u for e in arrivals) and s.v == tuple(e.v for e in arrivals)
        assert bool(entered) == (first is not None)
        if first:  # a late edit: the first chunks were read as canonical text
            assert entered[0] > 0


@st.composite
def spaced_lines(draw):
    """A line of ``splitlines()``: words, ASCII or not, joined by runs of
    whitespace of one or two of the kinds in _SPACES, with whitespace
    perhaps before and after them, and now and then a long last word."""
    kinds = draw(st.lists(st.sampled_from(_SPACES), min_size=1, max_size=2))

    def gap(least):
        return st.lists(st.sampled_from(kinds), min_size=least, max_size=2).map("".join)

    word = st.one_of(st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=4),
                     st.text(st.characters().filter(lambda ch: not ch.isspace()), min_size=1, max_size=4))
    toks = draw(st.lists(word, max_size=7))
    if toks and draw(st.booleans()):
        toks[-1] = "L=" + ",".join(map(str, range(1, 500))) + toks[-1]
    line = draw(gap(0))
    for tok in toks:
        line += tok + draw(gap(1))
    return line if draw(st.booleans()) else line.rstrip("".join(_SPACES))


@settings(max_examples=300)
@given(spaced_lines())
def test_line_tokens_are_str_split(line):
    # the tokens taken from line.split(None, 3) are str.split()'s
    assert line.splitlines() in ([line], [])
    assert streammod._tokens(line) == line.split()


def test_generated_streams_never_enter_the_line_loop(monkeypatch):
    # emit_stream writes canonical text for a stream without annotations,
    # so parsing it back, from the text or from a file, reads canonical
    # chunks alone, many of them
    def refuse(chunk, cols):
        raise AssertionError("the line reader was used")

    streams = [gen_regular(300, 40, seed=1), gen_regular(12, 4, seed=2), make_stream(3, 0, [])]
    texts = list(map(emit_stream, streams))
    assert len(texts[0]) > 5 * streammod.PARSE_CHUNK
    monkeypatch.setattr(streammod, "_read_lines", refuse)
    for s, text in zip(streams, texts):
        assert parse_stream(text) == s
        assert parse_stream(io.StringIO(text)) == s


@pytest.mark.parametrize(
    "arrivals,fragment",
    [
        (dict(u=[0, 2], v=[1, 3], palettes=[(1, 2), (5, 1)]), "not sorted"),
        (dict(u=[0, 2], v=[1, 3], palettes=[(1, 2), (4, 4)]), "not sorted"),
        (dict(u=[0, 2], v=[1]), "column v has 1 entries for 2 arrivals"),
        (dict(u=[0, 2], v=[1, 3], x=[0.5]), "column x has 1 entries for 2 arrivals"),
        # the check reads a palette by index and slice: any other kind is
        # an input error at its arrival, not a TypeError
        (dict(u=[0, 2], v=[1, 3], palettes=[(1,), 5]),
         "t=2: a palette must be a sequence of color ids, not int"),
        (dict(u=[0, 2], v=[1, 3], palettes=[(1,), {1, 2}]),
         "t=2: a palette must be a sequence of color ids, not set"),
    ],
)
def test_stream_rejects_invalid_arrivals(arrivals, fragment):
    # columns given straight to the constructor are checked like parsed ones
    with pytest.raises(StreamError, match=fragment):
        ArrivalStream(n=4, delta_bound=1, **arrivals)


def test_stream_drops_an_all_none_annotation_column():
    # a column in which no arrival carries the annotation is no column
    s = make_stream(3, 2, [(0, 1), (1, 2)], xs=[None] * 2, lists=[None] * 2)
    assert s.palettes is None and not s.has_lists
    assert s.x is None
    assert s == make_stream(3, 2, [(0, 1), (1, 2)])



@pytest.mark.parametrize("edges, lists, fragment", [
    ([(0, 1)], [[1.5]], "color ids must be integers"),
    ([(0, 1)], [[True, 2]], "color ids must be integers"),
    ([(0.0, 1)], None, "vertex ids must be integers"),
    ([("0", 1)], None, "vertex ids must be integers"),
], ids=["float-color", "bool-color", "float-vertex", "str-vertex"])
def test_stream_rejects_ids_that_are_not_integers(edges, lists, fragment):
    # emit_stream would write such ids as text parse_stream rejects
    with pytest.raises(StreamError, match=f"t=1: {fragment}"):
        make_stream(3, 2, edges, lists=lists)


def test_stream_accepts_numpy_integer_ids():
    np = pytest.importorskip("numpy")
    s = make_stream(3, 2, [(np.int64(0), np.int32(1)), (1, 2)], lists=[np.array([1, 5]), [2]])
    assert s.palettes == ((1, 5), (2,))
    assert parse_stream(emit_stream(s)) == s


@pytest.mark.parametrize("x", ["0.5", True], ids=["str", "bool"])
def test_stream_rejects_x_that_is_not_a_real_number(x):
    # a str fails the range comparison, and a bool would be written "x=True"
    with pytest.raises(StreamError, match="t=1: x must be a real number"):
        make_stream(3, 2, [(0, 1)], xs=[x])


def test_stream_writes_a_non_float_x_as_its_nearest_float():
    from fractions import Fraction

    s = make_stream(4, 1, [(0, 1), (2, 3)], xs=[Fraction(1, 2), 1])
    assert emit_stream(s) == "n=4 dmax=1\ne 0 1 x=0.5\ne 2 3 x=1.0\n"
    assert parse_stream(emit_stream(s)) == s


def test_stream_round_trips_a_numpy_float_x():
    np = pytest.importorskip("numpy")
    s = make_stream(3, 2, [(0, 1)], xs=[np.float64(0.5)])
    assert emit_stream(s) == "n=3 dmax=2\ne 0 1 x=0.5\n"
    assert parse_stream(emit_stream(s)) == s

@st.composite
def plain_columns(draw):
    """(n, dmax, u, v) of a small simple graph without annotations, with
    defects planted: a self-loop, a negative id, an id equal to n, a pair
    repeated in either orientation, a degree one above dmax, a negative n or
    dmax, or no arrivals at all."""
    n = size = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]

    def top_degree():
        return max(Counter(w for e in edges for w in e).values(), default=0)

    # dmax with some slack, so that a repeated pair is not also a degree excess
    dmax = top_degree() + draw(st.sampled_from([0, 1, 3]))
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.sampled_from(
            ["self_loop", "negative", "id_n", "repeat", "reversed", "degree", "neg_n", "neg_dmax",
             "empty"]))
        at = draw(st.integers(0, len(edges)))
        w = draw(st.integers(0, size - 1))
        if defect == "self_loop":
            edges.insert(at, (w, w))
        elif defect in ("negative", "id_n"):
            bad = -1 if defect == "negative" else size
            edges.insert(at, (bad, w) if draw(st.booleans()) else (w, bad))
        elif defect in ("repeat", "reversed") and edges:
            u, v = draw(st.sampled_from(edges))
            edges.insert(at, (u, v) if defect == "repeat" else (v, u))
        elif defect == "degree" and edges:
            dmax = top_degree() - 1
        elif defect == "neg_n":
            n = -n
        elif defect == "neg_dmax":
            dmax = -1
        elif defect == "empty":
            edges = []
    return n, dmax, [u for u, _ in edges], [v for _, v in edges]


@settings(max_examples=400)
@given(plain_columns())
def test_plain_validation_matches_the_loop(case):
    # a stream without annotations is accepted by a lean pass; any stream it
    # does not accept must get exactly the loop's message, as if it ran alone
    n, dmax, us, vs = case

    def outcome():
        try:
            ArrivalStream(n, dmax, us, vs)
        except StreamError as e:
            return str(e)
        return None

    got = outcome()
    with mock.patch.object(ArrivalStream, "_plain_valid", lambda self: False):
        want = outcome()
    assert got == want
    if n >= 0 and dmax >= 0:
        # and the lean pass accepts exactly the streams the loop accepts
        columns = SimpleNamespace(n=n, delta_bound=dmax, u=tuple(us), v=tuple(vs))
        assert ArrivalStream._plain_valid(columns) == (want is None)


def test_palettes_shared_and_normalized():
    s = parse_stream("n=4 dmax=1\ne 0 1 L=9,5,1\ne 2 3 L=9,5,1\n")
    assert s.arrivals[0].colors == (1, 5, 9)
    assert s.arrivals[0].colors is s.arrivals[1].colors
    ranged = with_range_lists(gen_regular(20, 5, seed=7), 12)
    assert len({id(e.colors) for e in ranged.arrivals}) == 1
    assert ranged.arrivals[0].colors == tuple(range(1, 13))
    made = make_stream(4, 1, [(0, 1), (2, 3)], lists=[(9, 5, 1), (9, 5, 1)])
    assert [e.colors for e in made.arrivals] == [(1, 5, 9), (1, 5, 9)]

    class FreshLists:
        # a new list on every lookup: a cache keyed on the object must not
        # mistake one for another once the first is gone
        def __getitem__(self, i):
            return [i + 2, 1, i + 2]

    fresh = make_stream(8, 1, [(0, 1), (2, 3), (4, 5), (6, 7)], lists=FreshLists())
    assert [e.colors for e in fresh.arrivals] == [(1, 2), (1, 3), (1, 4), (1, 5)]


def test_make_stream_shares_equal_palettes_by_content():
    # each edge given its own copy of one list, or the same colors in
    # another order or container, gets the one shared tuple
    edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
    made = make_stream(8, 1, edges, lists=[[9, 5, 1, 5], [1, 5, 9], (9, 1, 5), [5, 9, 1]])
    assert made.arrivals[0].colors == (1, 5, 9)
    assert len({id(e.colors) for e in made.arrivals}) == 1
    mixed = make_stream(8, 1, edges, lists=[[1, 2], [2, 3], None, [2, 1]])
    assert [e.colors for e in mixed.arrivals] == [(1, 2), (2, 3), None, (1, 2)]
    assert mixed.arrivals[0].colors is mixed.arrivals[3].colors


def test_emit_round_trip_examples():
    s = make_stream(3, 2, [(0, 1), (1, 2)])
    assert emit_stream(s) == "n=3 dmax=2\ne 0 1\ne 1 2\n"
    listed = make_stream(2, 1, [(0, 1)], lists=[(1, 5, 9)])
    assert "L=1,5,9" in emit_stream(listed)
    empty = make_stream(4, 0, [])
    assert emit_stream(empty) == "n=4 dmax=0\n"
    assert parse_stream(emit_stream(empty)) == empty


@st.composite
def streams(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    deg = {}
    for u, v in chosen:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    dmax = max(deg.values(), default=0)
    with_x = draw(st.booleans())
    with_l = draw(st.booleans())
    xs = None
    if with_x and chosen:
        cap = 1.0 / max(dmax, 1)
        xs = [draw(st.floats(0, cap, allow_nan=False)) for _ in chosen]
    lists = None
    if with_l and chosen:
        lists = [
            tuple(sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=5))))
            for _ in chosen
        ]
    return make_stream(n, dmax, chosen, xs=xs, lists=lists)


@settings(max_examples=150, deadline=None)
@given(streams())
def test_round_trip_identity(s):
    assert parse_stream(emit_stream(s)) == s


@settings(max_examples=60, deadline=None)
@given(streams(), st.integers(0, 2**30))
def test_random_reorder_is_seeded_permutation(s, seed):
    a = reorder(s, "random", seed)
    b = reorder(s, "random", seed)
    assert a == b
    assert sorted(e.pair for e in a.arrivals) == sorted(e.pair for e in s.arrivals)
    assert [e.time for e in a.arrivals] == list(range(1, s.m + 1))


def test_reversed_order():
    s = make_stream(3, 2, [(0, 1), (1, 2)])
    r = reorder(s, "reversed")
    assert [e.pair for e in r.arrivals] == [(1, 2), (0, 1)]


# -- generators --------------------------------------------------------------

def test_lower_bound_tree_shape():
    # delta=4, q=1: two children with 2 leaf edges each, plus delta-1 = 3
    # leaves at the root's second endpoint, plus the root edge
    s = gen_lower_bound_tree(4, 1)
    assert s.m == 2 * (4 - 2) + 2 + (4 - 1) + 1
    assert s.n == s.m + 1  # a tree
    deg = s.degrees()
    assert deg[0] == 1 + 2  # root vertex u: q+1 children + root edge
    assert deg[1] == 4  # v reaches the declared bound
    assert max(deg) == 4 == s.delta_bound
    # connectivity via union-find
    parent = list(range(s.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in s.arrivals:
        parent[find(e.u)] = find(e.v)
    assert len({find(v) for v in range(s.n)}) == 1


def test_lower_bound_tree_rejects_infeasible():
    with pytest.raises(StreamError):
        gen_lower_bound_tree(3, 2)  # q+2 = 4 > 3


def test_gen_regular_k4():
    s = gen_regular(4, 3, seed=5)
    assert s.m == 6  # the only 3-regular graph on 4 vertices is K4
    assert sorted(e.pair for e in s.arrivals) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_gen_regular_deterministic_and_valid():
    a = gen_regular(20, 5, seed=7)
    b = gen_regular(20, 5, seed=7)
    assert a == b
    assert all(d == 5 for d in a.degrees())
    with pytest.raises(StreamError):
        gen_regular(5, 3, seed=1)  # n*delta odd


def test_gen_erdos_renyi_extremes():
    tri = gen_erdos_renyi(3, 1.0, seed=1)
    assert tri.m == 3
    nothing = gen_erdos_renyi(5, 0.0, seed=1)
    assert nothing.m == 0
    assert gen_erdos_renyi(10, 0.4, seed=2) == gen_erdos_renyi(10, 0.4, seed=2)


def _arrival_digest(s):
    return hashlib.sha256(repr([(e.u, e.v) for e in s.arrivals]).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "gen,args,digest,dmax",
    [
        (gen_regular, (20, 5, 7), "9ebef33653590131", 5),
        (gen_regular, (60, 20, 6), "79509f3d5b434044", 20),
        (gen_regular, (500, 50, 1), "42e1fb35ae63174d", 50),
        (gen_regular, (200, 100, 1), "1eda61075aecb06f", 100),
        (gen_regular, (1000, 300, 1), "58f9f7b8d6b6130e", 300),
        (gen_erdos_renyi, (50, 0.1, 1), "f41e86a746c808db", 9),
        (gen_erdos_renyi, (200, 0.05, 2), "e6e84a9dee586090", 18),
        (gen_erdos_renyi, (12, 1.0, 1), "af6e1a7421507c86", 11),
        (gen_erdos_renyi, (5, 0.0, 1), "4f53cda18c2baa0c", 0),
    ],
)
def test_generators_pinned(gen, args, digest, dmax):
    # the arrival sequences these generators gave when they called networkx
    # 3.x; every benchmark digest and acceptance instance rests on them
    s = gen(*args)
    assert _arrival_digest(s) == digest
    assert s.delta_bound == dmax


def test_generators_match_networkx():
    nx = pytest.importorskip("networkx")
    for n, d in [(4, 3), (6, 0), (8, 5), (10, 9), (12, 4), (30, 7), (40, 35)]:
        for seed in range(6):
            got = [(e.u, e.v) for e in gen_regular(n, d, seed).arrivals]
            assert got == list(nx.random_regular_graph(d, n, seed=seed).edges()), (n, d, seed)
    for n in (0, 1, 7, 40):
        for p in (0.0, 0.05, 0.3, 0.9, 1.0):
            for seed in range(3):
                got = [(e.u, e.v) for e in gen_erdos_renyi(n, p, seed).arrivals]
                want = list(nx.fast_gnp_random_graph(n, p, seed=seed).edges())
                assert got == want, (n, p, seed)


@pytest.mark.parametrize(
    "args,digest",
    [
        ((1000, 300, 1), "e7a3cdbc169222568a2a5ae64b1c00d79f7a6729537c2b227a92390f2c774567"),
        ((2000, 200, 1), "d117acb228de6b988c8a3e74b3c2ef3778d42e6ff3b6dd26771a42f2ad9b68ed"),
    ],
    ids=["n1000-d300", "n2000-d200"],
)
def test_large_regular_instances_pinned(args, digest):
    # the plain-phases instance, and one whose pairing restarts once; both
    # digests were taken before the generator's shuffle was inlined
    attempts = []
    pairing = streammod._pairing_edges

    def counted(*a):
        attempts.append(pairing(*a))
        return attempts[-1]

    with mock.patch.object(streammod, "_pairing_edges", counted):
        s = gen_regular(*args)
    assert hashlib.sha256(repr((s.u, s.v)).encode()).hexdigest() == digest
    assert [e is None for e in attempts] == [True] * (args[0] == 2000) + [False]


def test_shuffle_matches_random_shuffle():
    # the same list and the same generator state as the standard library's
    # shuffle, across the edges of the blocks that share one bit count
    lengths = list(range(71)) + [(1 << k) + d for k in range(1, 13) for d in (-1, 0, 1)]
    for seed in (0, 1, 7, 2**40 + 3):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in lengths:
            a, b = list(range(n)), list(range(n))
            streammod._shuffle(ours, a)
            theirs.shuffle(b)
            assert a == b, (seed, n)
            assert ours.getstate() == theirs.getstate(), (seed, n)


def test_random_reorder_permutes_as_random_shuffle():
    s = gen_regular(30, 6, seed=2)
    perm = list(range(s.m))
    random.Random(9).shuffle(perm)
    r = reorder(s, "random", 9)
    assert r.u == tuple(s.u[i] for i in perm) and r.v == tuple(s.v[i] for i in perm)


def test_gen_complete_bipartite():
    s = gen_complete_bipartite(2, 2)
    assert s.m == 4 and s.delta_bound == 2
    assert all(e.u < 2 <= e.v for e in s.arrivals)


def test_arrivals_view_indexes_like_a_tuple():
    # negative indices and slices, steps included, give the records that
    # the same index gives on the tuple of all of them
    s = make_stream(4, 2, [(0, 1), (1, 2), (2, 3)], lists=[(1, 2), (2,), (1, 3)])
    every = tuple(s.arrivals)
    for key in (0, 2, -1, -3, slice(None), slice(1, None), slice(None, None, -2), slice(5, 9)):
        assert s.arrivals[key] == every[key], key
    for key in (3, -4):
        with pytest.raises(IndexError):
            s.arrivals[key]


def test_hot_paths_never_touch_the_arrivals_view(monkeypatch):
    # every per-edge and per-branch loop of the package reads the columns;
    # the EdgeArrival view is for callers outside it
    def refuse(*args):
        raise AssertionError("the arrivals view was used")

    plain = gen_regular(12, 4, seed=2)
    listed = with_range_lists(plain, 60)
    small = gen_regular(6, 2, seed=1)
    tiny = make_stream(4, 2, [(0, 1), (1, 2), (2, 3)], lists=[(1, 2), (2,), (1, 3)])
    frac = with_uniform_x(small, 0.25)
    practical = ConstantsProfile.practical()
    multiphase = practical.replace(c_q_color=0.1, c_stop=0.5, a_base_mult=0.5)
    gated = matcher.MatcherConfig(delta=4, q=1.0)
    rounding = RoundingConfig(epsilon=0.25, c_round=0.1)
    monkeypatch.setattr(Arrivals, "__iter__", refuse)
    monkeypatch.setattr(Arrivals, "__getitem__", refuse)

    res = colorer.plain_color(plain, plain.delta_bound, practical, seed=1)
    assert harness.validate_coloring(plain, res.colors, palettes=range(1, res.budget + 1)) == []
    res = colorer.list_color(listed, practical, seed=1)
    assert harness.validate_coloring(listed, res.colors, palettes=listed.palettes) == []
    res = colorer.local_color(plain, multiphase, seed=1)
    assert harness.validate_coloring(plain, res.colors) == []
    assert colorer.greedy_color(listed, listed.palettes)
    assert not harness.mc_marginals(plain, gated, 5, 3).violations
    harness.martingale_monitor(plain, gated, 0, 5, 3)
    harness.verify_stream(small, matcher.MatcherConfig(delta=2, q=1.0), 20, 3)
    oracle.exact_marginals(small, matcher.MatcherConfig(delta=2, q=1.0))
    oracle.exact_marginals(frac, rounding)
    oracle.exact_colored_marginals(tiny, 2, 1.0)
    assert not matcher.check_run_invariants(frac, rounding, matcher.run(frac, rounding, 4)[1])
    colorer.run_greedy_fallback(small, 2, 5)
    harness.counterexample_demo(4, 1)
    assert parse_stream(emit_stream(reorder(listed, "random", 3))).m == listed.m
    assert reorder(frac, "reversed").degrees() == frac.degrees()


@pytest.mark.parametrize("build, fragment", [
    (lambda: gen_lower_bound_tree(2, 1), "lower-bound tree needs delta >= 3"),
    (lambda: gen_lower_bound_tree(5, 0), "lower-bound tree needs q >= 1"),
    (lambda: gen_lower_bound_tree(4, 3), r"infeasible: root vertex degree q\+2=5 exceeds delta=4"),
    (lambda: gen_regular(5, 3, 0), r"regular graph needs n\*delta even"),
    (lambda: gen_regular(4, 4, 0), "regular graph needs 0 <= delta < n"),
    (lambda: gen_regular(4, -2, 0), "regular graph needs 0 <= delta < n"),
    (lambda: gen_erdos_renyi(5, 1.5, 0), r"edge probability must be in \[0, 1\]"),
    (lambda: gen_erdos_renyi(5, -0.1, 0), r"edge probability must be in \[0, 1\]"),
    (lambda: gen_complete_bipartite(0, 3), "bipartite sides must be positive"),
    (lambda: reorder(gen_complete_bipartite(2, 2), "random"), "order=random needs a seed"),
    (lambda: reorder(gen_complete_bipartite(2, 2), "sorted"), "unknown order 'sorted'"),
], ids=["tree-delta", "tree-q", "tree-root", "regular-odd", "regular-dense", "regular-negative",
        "er-above-1", "er-below-0", "bipartite-empty", "reorder-seedless", "reorder-unknown"])
def test_generators_and_reorder_reject_bad_arguments(build, fragment):
    with pytest.raises(StreamError, match=fragment):
        build()
