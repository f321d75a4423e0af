"""Exact plane geometry: points (x, yc*sqrt3), the copy maps, and rendering."""

import copy
import hashlib
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigasket.geometry import (
    RENDER_MAX_DEPTH,
    Point2,
    VERTEX,
    address_of,
    coords,
    exact_address,
    gasket_space,
    in_triangle,
    render,
    render_points,
    sigma,
    sigma_inv,
    surd_decimal,
    surd_text,
)
from trigasket.metric import dist_G
from trigasket.numerics import decimal_str
from trigasket.spaces import validate_space
from trigasket.words import (
    AddressWord,
    CanonicalAddress,
    _word_with,
    canonicalize,
    corner_digits,
    count_canonical,
    glue_partner,
    iter_canonical,
    parse_word,
)


def pt(x, yc):
    return Point2(Fraction(x), Fraction(yc))


# ---------------------------------------------------------------------------
# Display of u + v*sqrt3, an element of Q(sqrt 3)
# ---------------------------------------------------------------------------


def test_qsqrt3_text_format():
    assert surd_text(Fraction(1, 2), Fraction(-1, 4)) == "1/2-1/4√3"
    assert surd_text(Fraction(0), Fraction(0)) == "0/1+0/1√3"
    assert surd_text(Fraction(3, 8), Fraction(1, 8)) == "3/8+1/8√3"
    assert str(VERTEX["R"]) == "(1/1+0/1√3, 0/1+0/1√3)"
    assert str(pt(-1, Fraction(-1, 4))) == "(-1/1+0/1√3, 0/1-1/4√3)"


# y = 0.30000000000050000000009...: above the half unit of the 12th place by
# less than sqrt3 cut to 20 places resolves, so only exact rounding rounds up
HALF_UP_Y = (
    "babaabbbababaaabbababaabbbbaabababaababbaabbabaabbbbababbababbbababbabbaabaaabaaababbbbbbb.L"
)


def test_qsqrt3_decimal():
    assert surd_decimal(0, Fraction(1), 6) == "1.732051"
    assert surd_decimal(Fraction(1, 3), 0, 4) == "0.3333"
    assert surd_decimal(Fraction(1, 2), 0, 3) == "0.500"
    assert surd_decimal(0, coords(parse_word(HALF_UP_Y)).yc) == "0.300000000001"
    with pytest.raises(ValueError, match="takes u, v >= 0"):
        surd_decimal(0, Fraction(-1, 2))


@given(
    w=st.builds(AddressWord, st.text(alphabet="abc", max_size=200), st.sampled_from("TLR")),
    u=st.fractions(min_value=0, max_value=2),
)
@settings(deadline=None, max_examples=300)
def test_qsqrt3_decimal_rounds_half_up_exactly(w, u):
    # k/10^12 is the rounded y exactly when k - 1/2 <= y*10^12 < k + 1/2,
    # squared: y*10^12 = sqrt(3*yc^2*10^24)
    yc = coords(w).yc
    k = int(surd_decimal(0, yc).replace(".", ""))
    t = 3 * yc * yc * 10**24
    assert t < (k + Fraction(1, 2)) ** 2
    assert k == 0 or (k - Fraction(1, 2)) ** 2 <= t
    assert surd_decimal(u, 0) == decimal_str(u)


# ---------------------------------------------------------------------------
# Vertices, copy maps, coordinates
# ---------------------------------------------------------------------------


def test_vertices():
    assert VERTEX["T"] == pt(Fraction(1, 2), Fraction(1, 2))
    assert VERTEX["L"] == pt(0, 0)
    assert VERTEX["R"] == pt(1, 0)
    # the constructor takes ints too
    assert Point2(1, 0) == VERTEX["R"] and Point2(x=0, yc=0) == VERTEX["L"]
    # pairwise Euclidean distance 1, squared
    for d1 in "TLR":
        for d2 in "TLR":
            sq = VERTEX[d1].sq_dist(VERTEX[d2])
            assert sq == (0 if d1 == d2 else 1)


def test_sigma_fixes_its_corner():
    for m, d in (("a", "T"), ("b", "L"), ("c", "R")):
        assert sigma(m, VERTEX[d]) == VERTEX[d]


def test_sigma_halves_distances():
    p, r = pt(Fraction(1, 3), Fraction(1, 5)), VERTEX["T"]
    for m in "abc":
        assert sigma(m, p).sq_dist(sigma(m, r)) == p.sq_dist(r) * Fraction(1, 4)


def test_sigma_rejects_bad_label():
    with pytest.raises(ValueError):
        sigma("d", VERTEX["T"])


def test_coords_frozen_values():
    assert coords(parse_word("ba.R")) == pt(Fraction(3, 8), Fraction(1, 8))
    assert coords(parse_word("b.R")) == pt(Fraction(1, 2), 0)
    assert coords(parse_word("a.L")) == pt(Fraction(1, 4), Fraction(1, 4))
    assert coords(parse_word("ab.T")) == pt(Fraction(3, 8), Fraction(3, 8))
    assert coords(parse_word(".T")) == VERTEX["T"]


def test_coords_junction_pairs_coincide():
    for w in iter_canonical(5):
        partner = glue_partner(w)
        if partner is not None:
            assert coords(w) == coords(partner)


def test_coords_accepts_both_word_types():
    w = parse_word("ca.T")
    assert coords(w) == coords(canonicalize(w))


def ref_coords(w):
    """Reference: the copy maps composed one label at a time."""
    p = VERTEX[w.terminal]
    for m in reversed(w.labels):
        p = sigma(m, p)
    return p


def test_coords_fold_matches_composition_exhaustive():
    for w in iter_canonical(6):
        assert coords(w) == ref_coords(w)


def ternary(k, n):
    """The n-label word spelling k in base 3 (a=0, b=1, c=2), most significant first."""
    out = []
    for _ in range(n):
        k, r = divmod(k, 3)
        out.append("abc"[r])
    return "".join(reversed(out))


# deep labels drawn as one base-3 integer, so runs of one label come up too
DEEP_LABELS = st.integers(min_value=1500, max_value=2500).flatmap(
    lambda n: st.integers(min_value=0, max_value=3**n - 1).map(lambda k: ternary(k, n))
)


@given(labels=DEEP_LABELS, d=st.sampled_from("TLR"))
@settings(deadline=None, max_examples=40)
def test_coords_fold_matches_composition_deep(labels, d):
    w = AddressWord(labels, d)
    assert coords(w) == ref_coords(w)


def test_coords_closed_forms_level_20000():
    n = 20_000
    eps = Fraction(1, 2**n)
    assert coords(AddressWord("b" * n, "R")) == Point2(eps, Fraction(0))
    assert coords(AddressWord("c" * n, "L")) == Point2(1 - eps, Fraction(0))
    assert coords(AddressWord("a" * n, "T")) == VERTEX["T"]


# ---------------------------------------------------------------------------
# Membership and inversion
# ---------------------------------------------------------------------------


def test_in_triangle_boundary_and_outside():
    assert in_triangle(VERTEX["L"])
    assert in_triangle(VERTEX["T"])
    assert in_triangle(pt(Fraction(1, 2), Fraction(1, 6)))  # centroid
    assert in_triangle(pt(Fraction(1, 4), Fraction(1, 4)))  # on left edge
    assert not in_triangle(pt(0, Fraction(-1, 100)))
    assert not in_triangle(pt(Fraction(1, 2), Fraction(51, 100)))
    assert not in_triangle(pt(Fraction(11, 10), 0))


def test_sigma_inv_tie_prefers_canonical_copy():
    # on the mid-line y = sqrt3/4 the top copy wins
    m, pre = sigma_inv(pt(Fraction(1, 4), Fraction(1, 4)))
    assert m == "a" and pre == VERTEX["L"]
    # on the vertical x = 1/2 below it, the left copy wins
    m, pre = sigma_inv(pt(Fraction(1, 2), 0))
    assert m == "b" and pre == VERTEX["R"]


def component(lo, hi, tie):
    """Fractions in [lo, hi]: the tie line itself, sixteenths (which often land
    on edges and mid-lines) or general fractions."""
    return st.one_of(
        st.just(tie),
        st.sampled_from([Fraction(k, 16) for k in range(16 * lo, 16 * hi + 1)]),
        st.fractions(min_value=lo, max_value=hi, max_denominator=64),
    )


@given(x=component(-1, 2, Fraction(1, 2)), yc=component(-1, 1, Fraction(1, 4)))
@settings(deadline=None, max_examples=400)
def test_plane_predicates(x, yc):
    p = Point2(x, yc)
    inside = in_triangle(p)
    # y >= 0, y <= sqrt3*x, y <= sqrt3*(1-x) in floats, trusted away from the edges
    r3 = math.sqrt(3.0)
    y = float(yc) * r3
    margins = (y, r3 * float(x) - y, r3 * (1 - float(x)) - y)
    if all(abs(e) > 1e-9 for e in margins):
        assert inside == all(e > 0 for e in margins)
    if not inside:
        with pytest.raises(ValueError):
            sigma_inv(p)
        return
    m, pre = sigma_inv(p)
    assert sigma(m, pre) == p
    # ties go a > b > c: the mid-line y = sqrt3/4 to a, x = 1/2 below it to b
    if yc == Fraction(1, 4):
        assert m == "a"
    if x == Fraction(1, 2) and yc < Fraction(1, 4):
        assert m == "b"


# ---------------------------------------------------------------------------
# Point2 against its two Fractions, and the maps against Fraction formulas
# ---------------------------------------------------------------------------

RATIONALS = st.one_of(
    st.builds(lambda n, k: Fraction(n, 2**k), st.integers(-(2**24), 2**24), st.integers(0, 24)),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
    st.sampled_from([Fraction(k, 12) for k in range(-12, 25)]),
)

# a free pair (often outside the triangle), or one inside the closed triangle
PAIRS = st.one_of(
    st.tuples(RATIONALS, RATIONALS),
    st.builds(
        lambda x, u: (x, u * min(x, 1 - x)),
        st.fractions(min_value=0, max_value=1, max_denominator=1 << 20),
        st.fractions(min_value=0, max_value=1, max_denominator=1 << 20),
    ),
)

# the corner each copy keeps, as (x, yc)
KEPT = {"a": (Fraction(1, 2), Fraction(1, 2)), "b": (Fraction(0), Fraction(0)),
        "c": (Fraction(1), Fraction(0))}


def formula_sigma(m, x, yc):
    """(p + corner) / 2."""
    cx, cy = KEPT[m]
    return (x + cx) / 2, (yc + cy) / 2


def formula_sigma_inv(x, yc):
    """The copy (ties: a over b over c) and 2p - corner, or the error text."""
    if not (0 <= yc <= x and yc <= 1 - x):
        return f"point outside the closed triangle: ({surd_text(x, 0)}, {surd_text(0, yc)})"
    m = "a" if yc >= Fraction(1, 4) else "b" if x <= Fraction(1, 2) else "c"
    cx, cy = KEPT[m]
    return m, (2 * x - cx, 2 * yc - cy)


def lowest_triple(p):
    """The point's triple is (X, Y, den) with den even and gcd(X, Y, den/2) = 1."""
    X, Y, den = p
    return den > 0 and den % 2 == 0 and math.gcd(X, Y, den // 2) == 1


def pair(p):
    """The point's (x, yc), each checked to be a Fraction in lowest terms."""
    for f in (p.x, p.yc):
        assert type(f) is Fraction and math.gcd(f.numerator, f.denominator) == 1
    return p.x, p.yc


@given(a=PAIRS, b=PAIRS)
@example(a=(Fraction(1, 3), Fraction(0)), b=(Fraction(-1, 2), Fraction(7, 5)))
@settings(deadline=None, max_examples=400)
def test_point2_is_its_pair_of_fractions(a, b):
    p, q = Point2(*a), Point2(x=b[0], yc=b[1])
    assert lowest_triple(p) and lowest_triple(q)
    assert pair(p) == a and pair(q) == b
    assert Point2(p.x, p.yc) == p
    assert hash(p) == hash(a)
    assert repr(p) == f"Point2(x={a[0]!r}, yc={a[1]!r})"
    assert str(p) == f"({surd_text(a[0], 0)}, {surd_text(0, a[1])})"
    assert (p == q, p != q) == (a == b, a != b)
    assert (p < q, p <= q, p > q, p >= q) == (a < b, a <= b, a > b, a >= b)
    assert pickle.loads(pickle.dumps(p)) == p


@given(labels=st.text(alphabet="abc", max_size=12), d=st.sampled_from("TLR"))
@settings(deadline=None, max_examples=100)
def test_words_pickle_and_copy(labels, d):
    w = AddressWord(labels, d)
    c = canonicalize(w)
    copies = [copy.copy, copy.deepcopy]
    for k in range(pickle.HIGHEST_PROTOCOL + 1):
        copies.append(lambda x, k=k: pickle.loads(pickle.dumps(x, k)))
    for make in copies:
        w2, c2 = make(w), make(c)
        assert type(w2) is AddressWord and (w2, w2.toward) == (w, w.toward)
        assert type(c2) is CanonicalAddress and (c2, c2.toward) == (c, c.toward)


def test_unpickling_a_word_checks_it():
    # a pickle holds the constructor's arguments, so a tampered one is refused
    data = pickle.dumps(AddressWord("ab", "T"), 0).replace(b"ab", b"ax")
    with pytest.raises(ValueError, match="bad label in 'ax'"):
        pickle.loads(data)
    # a canonical address is rebuilt as one, through its own checks
    data = pickle.dumps(AddressWord("ba", "T"), 0).replace(b"AddressWord", b"CanonicalAddress")
    with pytest.raises(ValueError, match="^ba.T carries chain padding$"):
        pickle.loads(data)
    bad = _word_with(CanonicalAddress, "ba", "T", corner_digits("ba"))
    for make in (copy.copy, copy.deepcopy):
        with pytest.raises(ValueError, match="^ba.T carries chain padding$"):
            make(bad)


@given(a=PAIRS, m=st.sampled_from("abc"))
@example(a=(Fraction(1, 3), Fraction(0)), m="a")
@example(a=(Fraction(-1, 3), Fraction(0)), m="b")
@example(a=(Fraction(1, 2), Fraction(1, 4)), m="c")
@settings(deadline=None, max_examples=600)
def test_sigma_and_sigma_inv_are_the_fraction_formulas(a, m):
    p = Point2(*a)
    image = sigma(m, p)
    assert lowest_triple(image) and pair(image) == formula_sigma(m, *a)
    want = formula_sigma_inv(*a)
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            sigma_inv(p)
        assert str(err.value) == want
    else:
        m2, pre = sigma_inv(p)
        assert lowest_triple(pre) and (m2, pair(pre)) == want


def test_sigma_inv_rejects_outside():
    with pytest.raises(ValueError):
        sigma_inv(pt(2, 0))


# Fraction reference for the integer peel: the rational formulas, one label at a time
OFFSET = {"a": (Fraction(1, 4), Fraction(1, 4)), "b": (0, 0), "c": (Fraction(1, 2), 0)}


def ref_sigma(m, p):
    ox, oy = OFFSET[m]
    return Point2(p.x / 2 + ox, p.yc / 2 + oy)


def ref_in_triangle(p):
    return 0 <= p.yc <= p.x and p.yc <= 1 - p.x


def ref_sigma_inv(p):
    if not ref_in_triangle(p):
        raise ValueError(f"point outside the closed triangle: {p}")
    m = "a" if p.yc >= Fraction(1, 4) else "b" if p.x <= Fraction(1, 2) else "c"
    ox, oy = OFFSET[m]
    return m, Point2(2 * (p.x - ox), 2 * (p.yc - oy))


def ref_address_of(p, depth):
    start, labels = p, []
    for _ in range(depth + 1):
        for d, v in VERTEX.items():
            if p == v:
                return AddressWord("".join(labels), d)
        if len(labels) == depth:
            break
        if not ref_in_triangle(p):
            raise ValueError(
                f"{start} is not on the gasket: remainder {p} left the "
                f"triangle at step {len(labels) + 1}"
            )
        m, p = ref_sigma_inv(p)
        labels.append(m)
    raise ValueError(f"point did not resolve to a corner within depth {depth}")


def outcome(fn, *args):
    """The value, or the error text."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


PLANE_POINTS = st.one_of(
    st.builds(Point2, component(-1, 2, Fraction(1, 2)), component(-1, 1, Fraction(1, 4))),
    # gasket points: corners, edges and junctions down to 2^-10
    st.builds(AddressWord, st.text(alphabet="abc", max_size=10), st.sampled_from("TLR")).map(coords),
    # points of the closed triangle, mostly off the gasket and with odd denominators
    st.builds(
        lambda x, u: Point2(x, u * min(x, 1 - x)),
        st.fractions(min_value=0, max_value=1, max_denominator=64),
        st.fractions(min_value=0, max_value=1, max_denominator=64),
    ),
)


@given(p=PLANE_POINTS, depth=st.integers(min_value=0, max_value=14), m=st.sampled_from("abc"))
@settings(deadline=None, max_examples=800)
def test_peel_matches_fraction_reference(p, depth, m):
    assert in_triangle(p) == ref_in_triangle(p)
    assert outcome(sigma_inv, p) == outcome(ref_sigma_inv, p)
    assert outcome(address_of, p, depth) == outcome(ref_address_of, p, depth)
    assert sigma(m, p) == ref_sigma(m, p)


@pytest.mark.parametrize("x,yc", [
    (Fraction(1, 3), Fraction(1, 3)),  # odd denominator, above the mid-line
    (Fraction(1, 3), 0),
    (Fraction(2, 3), Fraction(1, 6)),
    (Fraction(1, 4), Fraction(1, 4)),  # left edge on the mid-line
    (Fraction(3, 4), Fraction(1, 4)),  # right edge on the mid-line
    (Fraction(1, 2), Fraction(1, 4)),  # both tie lines
    (Fraction(1, 2), Fraction(1, 6)),
    (Fraction(5, 7), Fraction(1, 7)),
])
def test_peel_matches_fraction_reference_cases(x, yc):
    p = pt(x, yc)
    assert in_triangle(p) == ref_in_triangle(p)
    assert sigma_inv(p) == ref_sigma_inv(p)
    for depth in (0, 1, 5, 40):
        assert outcome(address_of, p, depth) == outcome(ref_address_of, p, depth)


def test_sigma_inv_inverts_sigma_on_canonicals():
    # sigma_inv(sigma(m, p)) recovers (m, p) whenever m.p is itself canonical
    for w in iter_canonical(4):
        if w.level == 0:
            continue
        m, rest = w.labels[0], canonicalize(parse_word(w.labels[1:] + "." + w.terminal))
        got_m, got_p = sigma_inv(coords(w))
        assert got_m == m
        assert got_p == coords(rest)


def test_exact_address_round_trip():
    for w in iter_canonical(5):
        assert exact_address(coords(w)) == w
    # the peel depth is read off the point, so any level resolves
    rng = random.Random(5402)
    for n in (5_000, 20_000):
        w = CanonicalAddress("".join(rng.choice("abc") for _ in range(n - 1)) + "b", "R")
        assert exact_address(coords(w)) == w
    with pytest.raises(ValueError, match="did not resolve"):
        exact_address(pt(Fraction(1, 3), 0))


def test_address_of_depth_too_small():
    with pytest.raises(ValueError, match="did not resolve"):
        address_of(coords(parse_word("ba.R")), 1)


def test_address_of_rejects_off_gasket_point():
    centroid = pt(Fraction(1, 2), Fraction(1, 6))
    with pytest.raises(ValueError, match="is not on the gasket"):
        address_of(centroid, 30)


def test_gasket_space_is_valid_and_isometric_to_addresses():
    X = gasket_space()
    validate_space(X)
    a, b = parse_word("ab.T"), parse_word("ba.R")
    assert X.dist(coords(a), coords(b)) == dist_G(canonicalize(a), canonicalize(b))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_render_points_counts():
    for depth in range(5):
        assert len(render_points(depth)) == count_canonical(depth)


def test_render_depth_guard():
    with pytest.raises(ValueError):
        render_points(RENDER_MAX_DEPTH + 1)
    with pytest.raises(ValueError):
        render_points(-1)


def test_render_point_list_frozen_head(tmp_path):
    out = tmp_path / "g1.txt"
    render(1, str(out), "points")
    lines = out.read_text().splitlines()
    assert lines[0] == "1/2 0/1 0/1 1/2"
    assert lines[1] == "0/1 0/1 0/1 0/1"
    assert lines[2] == "1/1 0/1 0/1 0/1"
    assert lines[3] == "1/4 0/1 0/1 1/4"
    assert len(lines) == count_canonical(1)


def test_render_svg_structure(tmp_path):
    out = tmp_path / "g2.svg"
    render(2, str(out), "svg")
    svg = out.read_text()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<circle ") == count_canonical(2)


def test_render_writes_file(tmp_path):
    out = tmp_path / "g.svg"
    n = render(3, str(out), "svg")
    assert n == count_canonical(3)
    assert out.read_text().startswith("<svg ")
    out2 = tmp_path / "g.txt"
    assert render(0, str(out2), "points") == 3
    with pytest.raises(ValueError):
        render(2, str(tmp_path / "g.x"), "png")


# sha256 of the depth-6 renderings, as the list-building renderer wrote them
POINTS6_SHA256 = "8ad6210ebcc13eff40e9c9d4b63fa7b32030ff5ac39f3204fcd023b53d4ba5dc"
SVG6_SHA256 = "a27801420ddd4a4718631c9028f2018e0977d274592e4e5643d5734a10d68842"


def test_render_depth6_bytes_pinned(tmp_path):
    for fmt, want in (("points", POINTS6_SHA256), ("svg", SVG6_SHA256)):
        out = tmp_path / f"g6.{fmt}"
        render(6, str(out), fmt)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want


@pytest.mark.parametrize("depth,fmt", [(RENDER_MAX_DEPTH + 1, "svg"), (-1, "points"), (2, "png")])
def test_render_rejects_before_opening(tmp_path, depth, fmt):
    out = tmp_path / "never"
    with pytest.raises(ValueError):
        render(depth, str(out), fmt)
    assert not out.exists()


def test_render_streams(tmp_path):
    # depth 8 is 9843 points; a renderer that holds them all peaks at megabytes
    tracemalloc.start()
    try:
        render(8, str(tmp_path / "g8.txt"), "points")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
