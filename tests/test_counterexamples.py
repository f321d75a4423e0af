"""The two collapse algebras and the expanding triangle-outline coalgebra."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from trigasket import counterexamples
from trigasket.algebras import validate_algebra
from trigasket.coalgebras import validate_coalgebra
from trigasket.counterexamples import (
    APEX,
    REPORT_MAX_N,
    delta_coalgebra,
    delta_nonlipschitz_report,
    delta_pair,
    delta_point,
    delta_space,
    delta_step,
    i_algebra,
    y_algebra,
)
from trigasket.numerics import sqrt_fraction
from trigasket.spaces import ValidationError, validate_space


def test_y_algebra_table():
    alg = y_algebra()
    validate_algebra(alg)
    assert alg.e("a", "t") == "t"
    assert alg.e("c", "r") == "r"
    # every other combination lands on l
    assert alg.e("b", "t") == "l"
    assert alg.e("a", "r") == "l"
    assert alg.e("b", "l") == "l"
    assert alg.e("c", "t") == "l"


def test_i_algebra_table():
    alg = i_algebra()
    validate_algebra(alg)
    assert alg.e("a", "T") == "T"
    assert alg.e("a", "L") == "L"
    assert alg.e("b", "T") == "L"
    # everything to the right of the left corner drains to R
    for m, x in (("a", "R"), ("c", "T"), ("b", "R"), ("c", "L"), ("c", "R")):
        assert alg.e(m, x) == "R"


def test_delta_point_validation():
    with pytest.raises(ValueError):
        delta_point(Fraction(5, 4))
    with pytest.raises(ValueError):
        delta_point(-1)
    assert APEX.is_apex
    assert not delta_point(Fraction(1, 2)).is_apex
    assert str(APEX) == "apex"
    assert str(delta_point(Fraction(1, 3))) == "1/3"


def test_delta_space_metric():
    sp = delta_space()
    validate_space(sp)
    assert sp.dist(APEX, delta_point(0)) == 1
    assert sp.dist(APEX, delta_point(1)) == 1
    assert sp.dist(delta_point(0), delta_point(1)) == 1
    # apex to the base midpoint is the triangle height
    assert sp.dist(APEX, delta_point(Fraction(1, 2))) == sqrt_fraction(Fraction(3, 4))
    assert sp.dist(delta_point(Fraction(1, 3)), delta_point(Fraction(3, 4))) == Fraction(
        5, 12
    )
    assert sp.dist(APEX, APEX) == 0


def test_delta_step_branches():
    assert delta_step(APEX) == ("a", APEX)
    assert delta_step(delta_point(0)) == ("b", delta_point(0))
    assert delta_step(delta_point(Fraction(1, 4))) == ("b", delta_point(0))
    assert delta_step(delta_point(Fraction(1, 3))) == ("b", delta_point(Fraction(1, 3)))
    assert delta_step(delta_point(Fraction(1, 2))) == ("b", delta_point(1))
    assert delta_step(delta_point(Fraction(5, 8))) == ("c", delta_point(Fraction(1, 2)))
    assert delta_step(delta_point(Fraction(3, 4))) == ("c", delta_point(1))
    assert delta_step(delta_point(Fraction(7, 8))) == ("c", delta_point(1))
    assert delta_step(delta_point(1)) == ("c", delta_point(1))


def _delta_step_reference(p):
    """delta_step written with Fraction arithmetic and Fraction breakpoints."""
    if p.is_apex:
        return "a", APEX
    s = p.s
    if s <= Fraction(1, 4):
        return "b", delta_point(0)
    if s <= Fraction(1, 2):
        return "b", delta_point(4 * s - 1)
    if s <= Fraction(3, 4):
        return "c", delta_point(4 * s - 2)
    return "c", delta_point(1)


# rationals j/(2k + 1) in [0, 1]: odd denominators, wide ones included, so
# never the breakpoints 1/4, 1/2 and 3/4, which the examples add
odd_fractions = st.builds(
    lambda k, n: Fraction(n % (2 * k + 2), 2 * k + 1),
    st.integers(min_value=0, max_value=10**30),
    st.integers(min_value=0, max_value=10**31),
)


@settings(max_examples=500)
@given(st.one_of(odd_fractions, st.fractions(min_value=0, max_value=1)))
@example(Fraction(0))
@example(Fraction(1, 4))
@example(Fraction(1, 2))
@example(Fraction(3, 4))
@example(Fraction(1))
def test_delta_step_matches_the_fraction_formula(s):
    p = delta_point(s)
    m, q = delta_step(p)
    want_m, want_q = _delta_step_reference(p)
    assert m == want_m and q == want_q
    assert type(q.s) is Fraction
    assert (q.s.numerator, q.s.denominator) == (want_q.s.numerator, want_q.s.denominator)
    assert hash(q) == hash(want_q) and str(q) == str(want_q)


def test_delta_coalgebras_validate(delta_alt):
    validate_coalgebra(delta_coalgebra())
    validate_coalgebra(delta_alt)


def test_alt_resolves_seam_through_other_copy(delta_alt):
    half = delta_point(Fraction(1, 2))
    assert delta_coalgebra().e(half) == ("b", delta_point(1))
    assert delta_alt.e(half) == ("c", delta_point(0))
    # away from the seam the two agree
    for s in (0, Fraction(1, 3), Fraction(2, 3), 1):
        p = delta_point(s)
        assert delta_alt.e(p) == delta_coalgebra().e(p)


def test_delta_pair_values():
    assert delta_pair(1) == (Fraction(5, 16), Fraction(7, 16))
    assert delta_pair(2) == (Fraction(21, 64), Fraction(23, 64))
    for n in range(1, 8):
        x, y = delta_pair(n)
        assert y - x == Fraction(2, 4 ** (n + 1))
        assert 0 < x < y < Fraction(1, 2)


def test_report_rows_exact():
    rows = delta_nonlipschitz_report(6)
    assert len(rows) == 6
    for r in rows:
        assert r.dist_domain == Fraction(1, 2 ** (2 * r.n + 1))
        assert r.dist_image == Fraction(1, 2**r.n)
        assert r.ratio == 2 * 2**r.n
        assert r.x_limit_defect == 0
        assert r.y_limit_defect == 0


def test_report_gate_breach(monkeypatch):
    # a pair that both collapse to the L corner: y misses its limit b^n.R by 2^-n
    monkeypatch.setattr(counterexamples, "delta_pair", lambda n: (Fraction(0), Fraction(1, 8)))
    with pytest.raises(ValidationError, match=r"^n=1: x=0 y=1/8: limit defects 0, 1/2 "):
        delta_nonlipschitz_report(3)


def test_report_gate_is_exact(monkeypatch):
    # an offset of 2^-40 on every distance lies within any 2^-16 tolerance
    real = counterexamples.dist_G
    monkeypatch.setattr(
        counterexamples, "dist_G", lambda u, v: real(u, v) + Fraction(1, 2**40)
    )
    breach = r"^n=1: x=5/16 y=7/16: limit defects 1/1099511627776, "
    with pytest.raises(ValidationError, match=breach):
        delta_nonlipschitz_report(1)


def test_report_range_guard():
    with pytest.raises(ValueError):
        delta_nonlipschitz_report(0)
    with pytest.raises(ValueError):
        delta_nonlipschitz_report(REPORT_MAX_N + 1)
