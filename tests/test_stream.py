import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinecolor.stream import (
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


@pytest.mark.parametrize(
    "arrivals,fragment",
    [
        ([EdgeArrival(1, 0, 1, colors=(1, 2)), EdgeArrival(2, 2, 3, colors=(5, 1))], "not sorted"),
        ([EdgeArrival(1, 0, 1, colors=(1, 2)), EdgeArrival(2, 2, 3, colors=(4, 4))], "not sorted"),
        ([EdgeArrival(1, 0, 1), EdgeArrival(3, 2, 3)], "consecutive"),
    ],
)
def test_stream_rejects_invalid_arrivals(arrivals, fragment):
    # an EdgeArrival is a plain record; the stream that holds it checks it
    with pytest.raises(StreamError, match=fragment):
        ArrivalStream(n=4, delta_bound=1, arrivals=tuple(arrivals))


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


def test_gen_complete_bipartite():
    s = gen_complete_bipartite(2, 2)
    assert s.m == 4 and s.delta_bound == 2
    assert all(e.u < 2 <= e.v for e in s.arrivals)
