"""Exact plane geometry: Q(sqrt 3) arithmetic, the copy maps, and rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigasket.geometry import (
    RENDER_MAX_DEPTH,
    Point2,
    QSqrt3,
    VERTEX,
    address_of,
    coords,
    exact_address,
    gasket_space,
    in_triangle,
    render,
    render_point_list,
    render_points,
    render_svg,
    sigma,
    sigma_inv,
)
from trigasket.metric import dist_G
from trigasket.spaces import validate_space
from trigasket.words import (
    CanonicalAddress,
    canonicalize,
    count_canonical,
    glue_partner,
    iter_canonical,
    parse_word,
)


def q(u, v=0):
    return QSqrt3.of(Fraction(u), Fraction(v))


def pt(xu, xv, yu, yv):
    return Point2(q(xu, xv), q(yu, yv))


# ---------------------------------------------------------------------------
# QSqrt3 arithmetic and sign
# ---------------------------------------------------------------------------


def test_qsqrt3_ring_ops():
    x = q(Fraction(1, 2), Fraction(1, 3))
    y = q(2, -1)
    assert x + y == q(Fraction(5, 2), Fraction(-2, 3))
    assert x - y == q(Fraction(-3, 2), Fraction(4, 3))
    assert -y == q(-2, 1)
    # (1 + sqrt3)^2 = 4 + 2 sqrt3
    assert q(1, 1) * q(1, 1) == q(4, 2)
    assert 2 * x == q(1, Fraction(2, 3))
    assert x.half() == q(Fraction(1, 4), Fraction(1, 6))


def test_qsqrt3_sign_easy_cases():
    assert q(0).sign() == 0
    assert q(3).sign() == 1
    assert q(0, -2).sign() == -1
    assert q(1, 1).sign() == 1
    assert q(-1, -5).sign() == -1


def test_qsqrt3_sign_mixed_cases():
    # comparisons that genuinely need the squaring trick
    assert q(2, -1).sign() == 1  # 2 > sqrt3
    assert q(7, -4).sign() == 1  # 49 > 48, barely
    assert q(5, -3).sign() == -1  # 25 < 27
    assert q(-7, 4).sign() == -1
    assert q(-5, 3).sign() == 1
    # sqrt3 * sqrt3 - 3 is exactly zero
    assert (q(0, 1) * q(0, 1) - q(3)).sign() == 0


@given(
    st.fractions(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5),
)
@settings(deadline=None)
def test_qsqrt3_sign_matches_float(u, v):
    x = QSqrt3(u, v)
    f = float(x)
    if abs(f) > 1e-9:  # float is trustworthy away from zero
        assert x.sign() == (1 if f > 0 else -1)


def test_qsqrt3_text_format():
    assert q(Fraction(1, 2), Fraction(-1, 4)).text == "1/2-1/4√3"
    assert q(0).text == "0/1+0/1√3"
    assert q(Fraction(3, 8), Fraction(1, 8)).text == "3/8+1/8√3"
    assert str(q(1)) == "1/1+0/1√3"


def test_qsqrt3_decimal():
    assert q(0, 1).decimal(6) == "1.732051"
    assert q(Fraction(1, 3)).decimal(4) == "0.3333"
    assert q(Fraction(1, 2)).decimal(3) == "0.500"


# ---------------------------------------------------------------------------
# Vertices, copy maps, coordinates
# ---------------------------------------------------------------------------


def test_vertices():
    assert VERTEX["T"] == pt(Fraction(1, 2), 0, 0, Fraction(1, 2))
    assert VERTEX["L"] == pt(0, 0, 0, 0)
    assert VERTEX["R"] == pt(1, 0, 0, 0)
    # pairwise Euclidean distance 1, squared
    for d1 in "TLR":
        for d2 in "TLR":
            sq = VERTEX[d1].sq_dist(VERTEX[d2])
            assert sq == (q(0) if d1 == d2 else q(1))


def test_sigma_fixes_its_corner():
    for m, d in (("a", "T"), ("b", "L"), ("c", "R")):
        assert sigma(m, VERTEX[d]) == VERTEX[d]


def test_sigma_halves_distances():
    p, r = pt(Fraction(1, 3), 0, 0, Fraction(1, 5)), VERTEX["T"]
    for m in "abc":
        assert sigma(m, p).sq_dist(sigma(m, r)) == p.sq_dist(r) * Fraction(1, 4)


def test_sigma_rejects_bad_label():
    with pytest.raises(ValueError):
        sigma("d", VERTEX["T"])


def test_coords_frozen_values():
    assert coords(parse_word("ba.R")) == pt(Fraction(3, 8), 0, 0, Fraction(1, 8))
    assert coords(parse_word("b.R")) == pt(Fraction(1, 2), 0, 0, 0)
    assert coords(parse_word("a.L")) == pt(Fraction(1, 4), 0, 0, Fraction(1, 4))
    assert coords(parse_word("ab.T")) == pt(Fraction(3, 8), 0, 0, Fraction(3, 8))
    assert coords(parse_word(".T")) == VERTEX["T"]


def test_coords_junction_pairs_coincide():
    for w in iter_canonical(5):
        partner = glue_partner(w.word)
        if partner is not None:
            assert coords(w.word) == coords(partner)


def test_coords_accepts_both_word_types():
    w = parse_word("ca.T")
    assert coords(w) == coords(canonicalize(w))


# ---------------------------------------------------------------------------
# Membership and inversion
# ---------------------------------------------------------------------------


def test_in_triangle_boundary_and_outside():
    assert in_triangle(VERTEX["L"])
    assert in_triangle(VERTEX["T"])
    assert in_triangle(pt(Fraction(1, 2), 0, 0, Fraction(1, 6)))  # centroid
    assert in_triangle(pt(Fraction(1, 4), 0, 0, Fraction(1, 4)))  # on left edge
    assert not in_triangle(pt(0, 0, 0, Fraction(-1, 100)))
    assert not in_triangle(pt(Fraction(1, 2), 0, 0, Fraction(51, 100)))
    assert not in_triangle(pt(Fraction(11, 10), 0, 0, 0))


def test_sigma_inv_tie_prefers_canonical_copy():
    # on the mid-line y = sqrt3/4 the top copy wins
    m, pre = sigma_inv(pt(Fraction(1, 4), 0, 0, Fraction(1, 4)))
    assert m == "a" and pre == VERTEX["L"]
    # on the vertical x = 1/2 below it, the left copy wins
    m, pre = sigma_inv(pt(Fraction(1, 2), 0, 0, 0))
    assert m == "b" and pre == VERTEX["R"]


# The Q(sqrt 3) formulas the component-wise geometry must reproduce on
# every point of the field, not just on gasket points (x.v = y.u = 0).
SQRT3 = q(0, 1)


def ref_in_triangle(p):
    return (
        p.y.sign() >= 0
        and (SQRT3 * p.x - p.y).sign() >= 0
        and (SQRT3 * (q(1) - p.x) - p.y).sign() >= 0
    )


def ref_sigma_inv(p):
    two = Fraction(2)
    if (p.y - q(0, Fraction(1, 4))).sign() >= 0:
        return "a", Point2(two * p.x - q(Fraction(1, 2)), two * p.y - q(0, Fraction(1, 2)))
    if (p.x - q(Fraction(1, 2))).sign() <= 0:
        return "b", Point2(two * p.x, two * p.y)
    return "c", Point2(two * p.x - q(1), two * p.y)


REF_OFFSET = {
    "a": (q(Fraction(1, 4)), q(0, Fraction(1, 4))),
    "b": (q(0), q(0)),
    "c": (q(Fraction(1, 2)), q(0)),
}


def ref_sigma(m, p):
    ox, oy = REF_OFFSET[m]
    return Point2(p.x.half() + ox, p.y.half() + oy)


def component(lo, hi):
    """Fractions in [lo, hi]; sixteenths often land on edges and mid-lines."""
    return st.one_of(
        st.sampled_from([Fraction(k, 16) for k in range(16 * lo, 16 * hi + 1)]),
        st.fractions(min_value=lo, max_value=hi, max_denominator=64),
    )


@given(xu=component(0, 1), xv=component(-1, 1), yu=component(-1, 1), yv=component(0, 1))
@settings(deadline=None, max_examples=400)
def test_geometry_matches_field_formulas(xu, xv, yu, yv):
    # scaled to the triangle's box, with x.v and y.u small, so that about
    # half the points lie inside even off the gasket's x.v = y.u = 0
    p = Point2(QSqrt3(xu, xv / 8), QSqrt3(yu / 8, yv / 2))
    inside = ref_in_triangle(p)
    assert in_triangle(p) == inside
    if inside:
        assert sigma_inv(p) == ref_sigma_inv(p)
    else:
        with pytest.raises(ValueError):
            sigma_inv(p)
    for m in "abc":
        assert sigma(m, p) == ref_sigma(m, p)


def test_sigma_inv_rejects_outside():
    with pytest.raises(ValueError):
        sigma_inv(pt(2, 0, 0, 0))


def test_sigma_inv_inverts_sigma_on_canonicals():
    # sigma_inv(sigma(m, p)) recovers (m, p) whenever m.p is itself canonical
    for w in iter_canonical(4):
        word = w.word
        if word.level == 0:
            continue
        m, rest = word.labels[0], CanonicalAddress(
            canonicalize(parse_word(word.labels[1:] + "." + word.terminal)).word
        )
        got_m, got_p = sigma_inv(coords(word))
        assert got_m == m
        assert got_p == coords(rest.word)


def test_exact_address_round_trip():
    for w in iter_canonical(5):
        assert exact_address(coords(w.word)) == w


def test_address_of_depth_too_small():
    with pytest.raises(ValueError, match="did not resolve"):
        address_of(coords(parse_word("ba.R")), 1)


def test_address_of_rejects_off_gasket_point():
    centroid = pt(Fraction(1, 2), 0, 0, Fraction(1, 6))
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


def test_render_point_list_frozen_head():
    lines = render_point_list(1).splitlines()
    assert lines[0] == "1/2 0/1 0/1 1/2"
    assert lines[1] == "0/1 0/1 0/1 0/1"
    assert lines[2] == "1/1 0/1 0/1 0/1"
    assert lines[3] == "1/4 0/1 0/1 1/4"
    assert len(lines) == count_canonical(1)


def test_render_svg_structure():
    svg = render_svg(2)
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
