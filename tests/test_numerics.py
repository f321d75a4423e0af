from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trigasket.numerics import (
    RadicalSum,
    _fraction_text,
    _int_text,
    format_dist,
    sqrt_fraction,
    surd_decimal,
)


def test_surd_decimal_rounds_a_rational_half_up():
    assert surd_decimal(Fraction(1, 2), 0) == "0.500000000000"
    assert surd_decimal(Fraction(1, 3), 0) == "0.333333333333"
    assert surd_decimal(Fraction(2, 3), 0) == "0.666666666667"
    # ties round up
    assert surd_decimal(Fraction(5, 10**13), 0) == "0.000000000001"
    assert surd_decimal(Fraction(3), 0) == "3.000000000000"


def test_format_dist():
    assert format_dist(Fraction(1, 2)) == "1/2 = 0.500000000000"
    assert format_dist(Fraction(0)) == "0/1 = 0.000000000000"


def test_int_text_past_the_str_digit_limit():
    # inner pieces keep their leading zeros; 10^5000 is past str()'s default limit
    assert _int_text(10**5000) == "1" + "0" * 5000
    assert _int_text(10**1200 + 7) == "1" + "0" * 1199 + "7"
    assert _int_text(10**600 - 1) == "9" * 600
    assert _int_text(0) == "0"


@pytest.mark.parametrize("value", [Fraction(2), Fraction(-1, 3), Fraction(0), Fraction(3, 2),
                                   Fraction(-7), 5])
def test_fraction_text_is_str(value):
    assert _fraction_text(value) == str(value)


def test_fraction_text_past_the_str_digit_limit():
    assert _fraction_text(Fraction(10**5000)) == "1" + "0" * 5000
    assert _fraction_text(Fraction(-1, (10**5000 - 1) // 3)) == "-1/" + "3" * 5000


def test_sqrt_fraction_perfect_square():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert isinstance(sqrt_fraction(Fraction(9, 4)), Fraction)


def test_sqrt_fraction_irrational():
    r = sqrt_fraction(Fraction(3, 4))
    assert isinstance(r, RadicalSum)
    assert r > Fraction(4, 5)
    assert r < Fraction(9, 10)


def test_radical_sum_folds_square_factors():
    # sqrt(12) = 2*sqrt(3): both spellings must be the same value
    a = RadicalSum.of(0, (1, 12))
    b = RadicalSum.of(0, (2, 3))
    assert (a - b).sign() == 0
    assert a == b


def test_radical_sum_two_term_sign():
    # sqrt(2) + sqrt(3) = 3.1462... sits just above 22/7 = 3.1428...
    x = RadicalSum.of(0, (1, 2), (1, 3))
    assert x > Fraction(22, 7)
    assert x < Fraction(63, 20)
    # sqrt(3) - sqrt(2) is positive but tiny against 1/3
    y = RadicalSum.of(0, (1, 3), (-1, 2))
    assert y.sign() == 1
    assert y < Fraction(1, 3)
    assert y > Fraction(3, 10)


def test_radical_sum_rational_arithmetic():
    x = RadicalSum.of(Fraction(1, 2), (1, 3))
    y = x - RadicalSum.of(0, (1, 3))
    assert y == Fraction(1, 2)
    assert x + x == 2 * x
    assert (x / 2) * 2 == x


def test_radical_sum_three_terms_rejected():
    with pytest.raises(NotImplementedError):
        RadicalSum.of(0, (1, 2), (1, 3), (1, 5))


def test_value_helpers():
    # a Fraction on the left defers to RadicalSum's reflected comparison
    assert Fraction(1, 2) <= sqrt_fraction(Fraction(1, 3))
    assert not sqrt_fraction(Fraction(3)) <= Fraction(3, 2)


@settings(deadline=None, max_examples=200)
@given(
    p=st.integers(min_value=0, max_value=10**6),
    q=st.integers(min_value=1, max_value=10**6),
    a=st.integers(min_value=0, max_value=10**6),
    b=st.integers(min_value=1, max_value=10**6),
)
def test_sqrt_comparison_agrees_with_squares(p, q, a, b):
    """sqrt(a/b) vs p/q must order exactly as a/b vs (p/q)^2."""
    rad = sqrt_fraction(Fraction(a, b))
    rat = Fraction(p, q)
    want = (Fraction(a, b) > rat * rat) - (Fraction(a, b) < rat * rat)
    got = (rad > rat) - (rad < rat)
    assert got == want
