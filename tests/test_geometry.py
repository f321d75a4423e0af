"""Exact plane geometry: points (x, yc*sqrt3), the copy maps, and rendering."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    render_point_list,
    render_points,
    render_svg,
    sigma,
    sigma_inv,
    surd_decimal,
    surd_text,
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


def test_qsqrt3_decimal():
    assert surd_decimal(0, Fraction(1), 6) == "1.732051"
    assert surd_decimal(Fraction(1, 3), 0, 4) == "0.3333"
    assert surd_decimal(Fraction(1, 2), 0, 3) == "0.500"


# ---------------------------------------------------------------------------
# Vertices, copy maps, coordinates
# ---------------------------------------------------------------------------


def test_vertices():
    assert VERTEX["T"] == pt(Fraction(1, 2), Fraction(1, 2))
    assert VERTEX["L"] == pt(0, 0)
    assert VERTEX["R"] == pt(1, 0)
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


def test_sigma_inv_rejects_outside():
    with pytest.raises(ValueError):
        sigma_inv(pt(2, 0))


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
