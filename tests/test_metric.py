from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from trigasket import metric, words
from trigasket.geometry import coords
from trigasket.metric import (
    JUNCTIONS,
    ORACLE_MAX_LEVEL,
    dist_G,
    dist_level,
    dist_oracle,
    oracle_table,
    tensor_dist_G,
    _dist,
    _dist_G_num,
    _UnionFind,
    _JUNCTION_AT,
    _padded,
    _tensor,
)
from trigasket.words import (
    PAD,
    AddressWord,
    canonicalize,
    corner_digits,
    embed,
    glue_partner,
    iter_canonical,
    iter_words,
    parse_word,
    prepend,
    _prefixed,
)


def canon(text):
    return canonicalize(parse_word(text))


# frozen spot values, independently confirmed by the quotient-graph oracle
DIST_CASES = [
    (".T", ".L", 0, Fraction(1)),
    ("a.T", "a.L", 1, Fraction(1, 2)),
    ("a.L", "b.T", 1, Fraction(0)),
    ("a.T", "b.L", 1, Fraction(1)),
    ("a.T", "b.T", 1, Fraction(1, 2)),
    ("b.L", "c.R", 1, Fraction(1)),
    ("aa.T", "ab.L", 2, Fraction(1, 2)),
    ("ab.T", "ba.R", 2, Fraction(1, 2)),
    ("aa.T", "cc.R", 2, Fraction(1)),
]


@pytest.mark.parametrize("u,v,level,want", DIST_CASES)
def test_dist_level_cases(u, v, level, want):
    assert dist_level(parse_word(u), parse_word(v), level) == want


def test_dist_level_rejects_level_mismatch():
    with pytest.raises(ValueError):
        dist_level(parse_word("a.T"), parse_word("ab.T"), 2)


def _corners(n):
    """The three corner words at level n: a^n.T, b^n.L, c^n.R."""
    return [AddressWord(PAD[d] * n, d) for d in "TLR"]


def test_marked_points_pairwise_one():
    for n in range(8):
        t, l, r = _corners(n)
        assert dist_level(t, l, n) == 1
        assert dist_level(l, r, n) == 1
        assert dist_level(r, t, n) == 1


def test_oracle_agrees_exhaustively():
    for level in range(3):
        ws = list(iter_words(level))
        for i in range(len(ws)):
            for j in range(i, len(ws)):
                assert dist_level(ws[i], ws[j], level) == dist_oracle(
                    ws[i], ws[j], level
                )


def test_oracle_table_numerators_match_dist_oracle():
    for level in range(4):
        table = oracle_table(level)
        ws = list(iter_words(level))
        for u, cu in zip(ws, table.class_of):
            for v, cv in zip(ws, table.class_of):
                num = table.dist[cu][cv]
                assert type(num) is int
                assert num == dist_oracle(u, v, level) * 2**level


def test_oracle_class_counts():
    # (3^(n+1) + 3) / 2 classes at level n
    for level, want in enumerate([3, 6, 15, 42, 123, 366]):
        table = oracle_table(level)
        assert len(table.class_of) == 3 ** (level + 1)
        assert len(set(table.class_of)) == want == len(table.dist)


def test_oracle_agrees_at_level_5():
    rng = Random(55)
    ws = list(iter_words(5))
    for _ in range(5000):
        u, v = rng.choice(ws), rng.choice(ws)
        assert dist_level(u, v, 5) == dist_oracle(u, v, 5)


def test_oracle_agrees_at_level_6():
    rng = Random(66)
    ws = list(iter_words(6))
    for _ in range(5000):
        u, v = rng.choice(ws), rng.choice(ws)
        assert dist_level(u, v, 6) == dist_oracle(u, v, 6)


@lru_cache(maxsize=None)
def _reference_oracle(level, through_bridges):
    """The oracle's quotient at a level from edges taken pair by pair over
    the members of two classes, with Floyd-Warshall relaxed through every
    class, or only through the classes with members in two copies, row by
    full row: the references for its build by copy blocks and its
    relaxation through the junction classes over half the table. Returns
    (class_of, dist) like an OracleTable."""
    if level == 0:
        dist = [[int(i != j) for j in range(3)] for i in range(3)]
        return {w: i for i, w in enumerate(iter_words(0))}, dist
    prev_class, prev_dist = _reference_oracle(level - 1, through_bridges)
    proto = [(m, c) for m in "abc" for c in range(len(prev_dist))]
    index = {pc: i for i, pc in enumerate(proto)}
    uf = _UnionFind(len(proto))
    corner = {w.terminal: prev_class[w] for w in _corners(level - 1)}
    # b.T~a.L, a.R~c.T, c.L~b.R
    for m1, d1, m2, d2 in ("bTaL", "aRcT", "cLbR"):
        uf.union(index[m1, corner[d1]], index[m2, corner[d2]])
    cid = {root: i for i, root in enumerate(sorted({uf.find(i) for i in range(len(proto))}))}
    members = [[] for _ in cid]
    for pc, i in index.items():
        members[cid[uf.find(i)]].append(pc)
    one = 2**level
    dist = [
        [min([prev_dist[c1][c2] for m1, c1 in mi for m2, c2 in mj if m1 == m2], default=one)
         for mj in members]
        for mi in members
    ]
    n = len(members)
    for k in range(n):
        if through_bridges and len({m for m, _ in members[k]}) < 2:
            continue
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    class_of = {
        w: cid[uf.find(index[w.labels[0], prev_class[AddressWord(w.labels[1:], w.terminal)]])]
        for w in iter_words(level)
    }
    return class_of, dist


@pytest.mark.parametrize("level", range(5))
def test_oracle_matches_full_floyd_warshall(level):
    table = oracle_table(level)
    class_of, dist = _reference_oracle(level, False)
    assert ([class_of[w] for w in iter_words(level)], dist) == (table.class_of, table.dist)


@pytest.mark.parametrize("level", range(6))
def test_oracle_matches_member_pair_edges_and_full_rows(level):
    table = oracle_table(level)
    class_of, dist = _reference_oracle(level, True)
    assert [class_of[w] for w in iter_words(level)] == table.class_of
    assert table.dist == dist


def test_corners_stand_first_middle_and_last_in_iter_words_order():
    # the oracle reads the corners of each level at these three positions
    for n in range(5):
        ws = list(iter_words(n))
        assert [ws[0], ws[len(ws) // 2], ws[-1]] == _corners(n)


def test_a_fresh_oracle_build_constructs_no_word(monkeypatch):
    # the oracle glues class ids, not words: neither the validating
    # constructor nor `_word_with` runs while levels 0-6 are built
    built = []
    init, unchecked = AddressWord.__init__, words._word_with

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_unchecked(*args):
        built.append(args)
        return unchecked(*args)

    monkeypatch.setattr(AddressWord, "__init__", counted_init)
    monkeypatch.setattr(words, "_word_with", counted_unchecked)
    metric._oracle_table.cache_clear()
    for level in range(ORACLE_MAX_LEVEL + 1):
        oracle_table(level)
    assert metric._oracle_table.cache_info().currsize == ORACLE_MAX_LEVEL + 1
    assert built == []


def test_oracle_level_guard():
    with pytest.raises(ValueError):
        oracle_table(ORACLE_MAX_LEVEL + 1)


def test_dist_oracle_rejects_a_word_of_another_level():
    with pytest.raises(ValueError, match="^oracle arguments must both have the stated level$"):
        dist_oracle(parse_word("ab.T"), parse_word("a.L"), 2)


def test_junction_pairs_at_distance_zero():
    for level in range(1, 5):
        for w in iter_words(level):
            v = glue_partner(w)
            if v is not None:
                assert dist_level(w, v, level) == 0


def test_corner_approach_families():
    # the T corner seen from deeper and deeper a-copies of the L corner
    for k in range(1, 13):
        assert dist_G(canon(".T"), canon("a" * k + ".L")) == Fraction(1, 2**k)
    # the bottom-left cascade used by the expansion counterexample
    for n in range(1, 13):
        assert dist_G(canon("b" * n + ".R"), canon(".L")) == Fraction(1, 2**n)


def test_dist_G_matches_embedded_pairs_exhaustively():
    # every canonical pair at levels <= 4: the padded kernel against embed
    # to the deeper level, and against the oracle after embedding to level 4
    pts = list(iter_canonical(4))
    for i, u in enumerate(pts):
        for v in pts[: i + 1]:
            n = max(u.level, v.level)
            d = dist_G(u, v)
            assert d == dist_level(embed(u.word, n), embed(v.word, n), n)
            assert d == dist_oracle(embed(u.word, 4), embed(v.word, 4), 4)


def test_dist_G_embedding_invariance():
    u, v = canon("ab.L"), canon("c.R")
    base = dist_G(u, v)
    for extra in range(1, 4):
        n = max(u.level, v.level) + extra
        assert dist_level(embed(u.word, n), embed(v.word, n), n) == base


labels5 = st.text(alphabet="abc", max_size=5)
terminals = st.sampled_from("TLR")


def ternary(k, n):
    """The n-label word spelling k in base 3 (a=0, b=1, c=2), most significant first."""
    out = []
    for _ in range(n):
        k, r = divmod(k, 3)
        out.append("abc"[r])
    return "".join(reversed(out))


def labels_of(n):
    """Label strings of exactly n labels; deep ones are drawn as one integer."""
    if n <= 8:
        return st.text(alphabet="abc", min_size=n, max_size=n)
    return st.integers(min_value=0, max_value=3**n - 1).map(lambda k: ternary(k, n))


# deep words sit past the depth at which a recursive kernel would overflow the
# stack, even with the higher recursion limit Hypothesis runs tests under
DEEP = st.integers(min_value=1500, max_value=2500)


# the deep branches take a share of the examples, so the property tests below
# run more of them; the shallow cases still get as many as without deep words
@settings(deadline=None, max_examples=900)
@given(
    level=st.one_of(st.integers(min_value=0, max_value=4), DEEP),
    data=st.data(),
)
def test_metric_axioms(level, data):
    # deep words share a drawn prefix, so they can first differ at any depth
    shared = data.draw(labels_of(level), label="shared") if level > 4 else ""

    def word(tag):
        keep = data.draw(st.integers(min_value=0, max_value=len(shared)), label=tag + "-keep")
        ls = shared[:keep] + data.draw(labels_of(level - keep), label=tag)
        return AddressWord(ls, data.draw(terminals, label=tag + "-term"))

    u, v, w = word("u"), word("v"), word("w")
    duv = dist_level(u, v, level)
    assert 0 <= duv <= 1
    assert duv == dist_level(v, u, level)
    assert (duv == 0) == (canonicalize(u) == canonicalize(v))
    assert duv <= dist_level(u, w, level) + dist_level(w, v, level)


@settings(deadline=None, max_examples=300)
@given(
    prefix=st.text(alphabet="abc", max_size=8),
    tail_level=st.integers(min_value=0, max_value=2),
    data=st.data(),
)
def test_shared_prefix_diameter(prefix, tail_level, data):
    tails = st.builds(
        AddressWord,
        st.text(alphabet="abc", min_size=tail_level, max_size=tail_level),
        terminals,
    )
    x1 = data.draw(tails)
    x2 = data.draw(tails)
    u = AddressWord(prefix + x1.labels, x1.terminal)
    v = AddressWord(prefix + x2.labels, x2.terminal)
    assert dist_level(u, v, u.level) <= Fraction(1, 2 ** len(prefix))


# two shallow tails, or a deep tail with a shallow or deep one
tail_pairs = st.one_of(
    st.tuples(labels5, labels5),
    st.tuples(DEEP.flatmap(labels_of), st.one_of(labels5, DEEP.flatmap(labels_of))),
)


@settings(deadline=None, max_examples=400)
@given(
    mu=st.sampled_from("abc"),
    mv=st.sampled_from("abc"),
    tails=tail_pairs,
    tu=terminals,
    tv=terminals,
)
def test_prepending_is_isometric(mu, mv, tails, tu, tv):
    u = canonicalize(AddressWord(tails[0], tu))
    v = canonicalize(AddressWord(tails[1], tv))
    assert tensor_dist_G(mu, u, mv, v) == dist_G(prepend(mu, u), prepend(mv, v))


def test_level_5000_pair():
    rng = Random(5000)
    shared = "".join(rng.choice("abc") for _ in range(3000))

    def word(d):
        return AddressWord(shared + "".join(rng.choice("abc") for _ in range(2000)), d)

    u, v, w = word("T"), word("L"), word("R")
    duv = dist_level(u, v, 5000)
    assert 0 < duv <= Fraction(1, 2**3000)
    assert duv == dist_level(v, u, 5000)
    for m in "abc":
        mu, mv = AddressWord(m + u.labels, u.terminal), AddressWord(m + v.labels, v.terminal)
        assert dist_level(mu, mv, 5001) == duv / 2
    assert duv <= dist_level(u, w, 5000) + dist_level(w, v, 5000)


# The address metric against the plane: |p-q|^2 <= d_G^2 <= 4|p-q|^2. The
# lower bound holds because d_G is the length of a path inside the gasket.
# The upper bound is observed, not proved: the largest ratio seen, on every
# pair at levels <= 5 and on sampled pairs up to level 600, is exactly 4.


def test_plane_bounds_metric_exhaustive():
    pts = [(w, coords(w)) for w in iter_canonical(4)]
    worst = Fraction(0)
    for i, (u, p) in enumerate(pts):
        for v, q in pts[:i]:
            sq, d2 = p.sq_dist(q), dist_G(u, v) ** 2
            assert sq <= d2 <= 4 * sq
            worst = max(worst, d2 / sq)
    assert worst == 4
    u, v = canon("ab.R"), canon("ba.R")
    assert dist_G(u, v) ** 2 == 4 * coords(u).sq_dist(coords(v))


# each deep example costs about 50 ms in coords
@settings(deadline=None, max_examples=60)
@given(
    level=st.one_of(st.integers(min_value=0, max_value=8), DEEP),
    data=st.data(),
)
def test_plane_bounds_metric_deep(level, data):
    shared = data.draw(labels_of(level), label="shared")

    def word(tag):
        keep = data.draw(st.integers(min_value=0, max_value=level), label=tag + "-keep")
        ls = shared[:keep] + data.draw(labels_of(level - keep), label=tag)
        return canonicalize(AddressWord(ls, data.draw(terminals, label=tag + "-term")))

    u, v = word("u"), word("v")
    sq, d2 = coords(u).sq_dist(coords(v)), dist_G(u, v) ** 2
    assert sq <= d2 <= 4 * sq


# each of the two levels from 0-8 or 1500-2500, drawn independently
MIXED = st.one_of(st.integers(min_value=0, max_value=8), DEEP)
# the six junction spellings (head label, terminal); head + pad(terminal)^k is
# a point where two copies touch
JUNCTION_TAILS = [("b", "T"), ("a", "L"), ("c", "T"), ("a", "R"), ("c", "L"), ("b", "R")]


def ending(data, labels, tag):
    """A terminal for labels, or a rewrite of their end into a junction tail."""
    if not labels or not data.draw(st.booleans(), label=tag + "-junction"):
        return labels, data.draw(terminals, label=tag + "-term")
    m, d = data.draw(st.sampled_from(JUNCTION_TAILS), label=tag + "-tail")
    k = data.draw(st.integers(min_value=0, max_value=min(len(labels) - 1, 6)), label=tag + "-k")
    return labels[: len(labels) - 1 - k] + m + PAD[d] * k, d


@settings(deadline=None, max_examples=300)
@given(
    levels=st.tuples(MIXED, MIXED),
    shape=st.sampled_from(["free", "extends", "pad-run"]),
    mu=st.sampled_from("abc"),
    mv=st.sampled_from("abc"),
    data=st.data(),
)
def test_dist_G_mixed_levels(levels, shape, mu, mv, data):
    # the deeper word is free, or the shallower word's labels plus a surplus;
    # a "pad-run" surplus opens with the shallower word's pad label (often
    # all of it), so the first difference falls inside or after that run
    lo, hi = sorted(levels)
    short, ts = ending(data, data.draw(labels_of(lo), label="short"), "short")
    if shape == "free":
        long, tl = ending(data, data.draw(labels_of(hi), label="long"), "long")
    else:
        room = hi - lo
        run = 0
        if shape == "pad-run":
            run = data.draw(st.one_of(st.just(room), st.integers(0, room)), label="run")
        surplus, tl = ending(
            data, PAD[ts] * run + data.draw(labels_of(room - run), label="surplus"), "surplus"
        )
        long = short + surplus
    words = [canonicalize(AddressWord(short, ts)), canonicalize(AddressWord(long, tl))]
    if levels[0] > levels[1]:
        words.reverse()
    u, v = words
    n = max(u.level, v.level)
    d = dist_G(u, v)
    assert d == dist_level(embed(u.word, n), embed(v.word, n), n)
    assert d == dist_G(v, u)
    assert (d == 0) == (u == v)
    assert tensor_dist_G(mu, u, mv, v) == dist_G(prepend(mu, u), prepend(mv, v))


# shared prefixes up to 5000 labels, drawn from a seeded generator
SHARED = st.one_of(
    st.text(alphabet="abc", max_size=8),
    st.tuples(st.integers(min_value=0, max_value=5000), st.integers(min_value=0)).map(
        lambda t: "".join(Random(t[1]).choices("abc", k=t[0]))
    ),
)


def _words(k):
    labels = st.text(alphabet="abc", min_size=k, max_size=k)
    return st.builds(AddressWord, labels, st.sampled_from("TLR"))


# two tails of one level <= 4, the oracle's reach
TAIL_PAIRS = st.integers(min_value=0, max_value=4).flatmap(
    lambda k: st.tuples(_words(k), _words(k))
)


@given(shared=SHARED, tails=TAIL_PAIRS)
@settings(deadline=None, max_examples=400)
def test_shared_prefix_scales_the_tail_distance(shared, tails):
    x, y = tails
    u = AddressWord(shared + x.labels, x.terminal)
    v = AddressWord(shared + y.labels, y.terminal)
    n = u.level
    want = dist_oracle(x, y, x.level)
    assert dist_level(u, v, n) * 2 ** len(shared) == want
    assert dist_level(v, u, n) * 2 ** len(shared) == want


@given(
    labels=st.text(alphabet="abc", max_size=12),
    d=st.sampled_from("TLR"),
    extra=st.one_of(st.integers(min_value=0, max_value=6), st.integers(min_value=500, max_value=2000)),
)
@settings(max_examples=300)
def test_padded_digits_match_padded_word(labels, d, extra):
    w = AddressWord(labels, d)
    n = len(labels) + extra
    padded = AddressWord(labels + PAD[d] * extra, d)
    assert _padded(w, n) == padded.toward


@given(
    prefix=st.one_of(st.integers(min_value=0, max_value=12), DEEP).flatmap(labels_of),
    tail=st.builds(AddressWord, st.text(alphabet="abc", max_size=12), terminals),
)
@settings(deadline=None, max_examples=300)
def test_prefixed_digits_match_prefixed_word(prefix, tail):
    want = AddressWord(prefix + tail.labels, tail.terminal).toward
    assert _prefixed(corner_digits(prefix), tail.toward, tail.level) == want


def test_junction_table_is_keyed_by_label_codes():
    # a label's code is 2*T + R of its own one-label digits
    code = {m: 2 * t + r for m in "abc" for t, _, r in [corner_digits(m)]}
    assert sorted(code.values()) == [0, 1, 2]
    # indexed by the two codes packed in four bits; exactly the six ordered
    # pairs of distinct copies have an entry, so a slip in the packing
    # reaches None, not another pair's junction
    assert len(_JUNCTION_AT) == 16
    filled = {i for i, junction in enumerate(_JUNCTION_AT) if junction is not None}
    assert filled == {code[m] << 2 | code[m2] for m in "abc" for m2 in "abc" if m != m2}
    assert len(filled) == 6
    for (m, m2), corners in JUNCTIONS.items():
        p, cp, q, cq, r, cr = _JUNCTION_AT[code[m] << 2 | code[m2]]
        # each corner's digit index names the letter it carries
        assert (cp, cq, cr) == corners
        assert ("TLR"[p], "TLR"[q], "TLR"[r]) == corners


# levels 0-2000, shallow ones often; the words share a drawn prefix, so they
# can first differ at any depth, long prefixes included
KERNEL_LEVELS = st.one_of(
    st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=2000)
)


@settings(deadline=None, max_examples=300)
@given(
    levels=st.tuples(KERNEL_LEVELS, KERNEL_LEVELS),
    mu=st.sampled_from("abc"),
    mv=st.sampled_from("abc"),
    data=st.data(),
)
def test_integer_kernel_matches_public_functions(levels, mu, mv, data):
    lo, hi = sorted(levels)
    shared = data.draw(labels_of(hi), label="shared")

    def word(n, tag):
        keep = data.draw(st.integers(min_value=0, max_value=n), label=tag + "-keep")
        ls = shared[:keep] + data.draw(labels_of(n - keep), label=tag)
        return AddressWord(ls, data.draw(terminals, label=tag + "-term"))

    u, v = word(hi, "u"), word(hi, "v")
    num = _dist(u.toward, u.terminal, v.toward, v.terminal, hi)
    assert type(num) is int
    assert num == dist_level(u, v, hi) * 2**hi

    x, y = canonicalize(word(lo, "x")), canonicalize(word(hi, "y"))
    num, n = _dist_G_num(x, y)
    assert n == max(x.level, y.level)
    assert Fraction(num, 2**n) == dist_G(x, y)
    assert Fraction(num, 2**n) == dist_level(embed(x.word, n), embed(y.word, n), n)
    # the one-step kernel on the same padded digits, one level finer
    wx, wy = x.word, y.word
    num = _tensor(mu, _padded(wx, n), wx.terminal, mv, _padded(wy, n), wy.terminal, n)
    assert Fraction(num, 2 ** (n + 1)) == tensor_dist_G(mu, x, mv, y)
