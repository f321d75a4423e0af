"""`numerics.dyadic` builds Fraction(num, 2**k) without a gcd, and
`numerics.ratio` builds Fraction(num, den) by slot fill: each must agree
with Fraction in every respect, and every public result built with them
must be in lowest terms and equal to the value the Fraction constructor
gives for the same numerator and denominator."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from trigasket.coalgebras import finality_check, thetas
from trigasket.counterexamples import delta_coalgebra, delta_point
from trigasket.geometry import VERTEX, Point2, coords, sigma, sigma_inv
from trigasket.metric import _dist_G_num, dist_G, dist_level, dist_oracle, tensor_dist_G
from trigasket.numerics import dyadic, ratio
from trigasket.spaces import ValidationError
from trigasket.words import ANCHOR, AddressWord, canonicalize, prepend

# zero, small values of either sign, values with many trailing twos (often
# more than k) and wide ones
NUMS = st.one_of(
    st.just(0),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.builds(lambda a, s: a << s, st.integers(min_value=-999, max_value=999),
              st.integers(min_value=0, max_value=400)),
    st.integers(min_value=-(2**1200), max_value=2**1200),
)


def facets(f):
    return f.numerator, f.denominator, hash(f), str(f), repr(f), type(f)


@settings(deadline=None, max_examples=500)
@given(num=NUMS, k=st.integers(min_value=0, max_value=300))
@example(num=1 << 80, k=72)
@example(num=0, k=0)
@example(num=0, k=300)
@example(num=-(3 << 9), k=9)
def test_dyadic_is_the_fraction(num, k):
    got, want = dyadic(num, k), Fraction(num, 1 << k)
    assert got == want and want == got
    assert facets(got) == facets(want)


@settings(deadline=None, max_examples=500)
@given(
    num=NUMS,
    den=st.one_of(
        st.integers(min_value=1, max_value=2**70),
        st.integers(min_value=1, max_value=2**1200),
        st.builds(lambda a, s: a << s, st.integers(min_value=1, max_value=999),
                  st.integers(min_value=0, max_value=400)),
    ),
)
@example(num=0, den=1)
@example(num=0, den=12)
@example(num=-6, den=4)
@example(num=3 << 1100, den=9 << 1000)
def test_ratio_is_the_fraction(num, den):
    got, want = ratio(num, den), Fraction(num, den)
    assert got == want and want == got
    assert facets(got) == facets(want)


def test_fraction_keeps_the_slots_dyadic_and_ratio_fill():
    # both helpers write these two private slots; a Fraction laid out
    # otherwise would break every value they build
    assert Fraction.__slots__ == ("_numerator", "_denominator")


def assert_dyadic(value, k):
    """value is an integer num over 2^k, in Fraction's own normal form for
    num/2^k: lowest terms, with a positive power-of-two denominator."""
    num = value * (1 << k)
    assert num.denominator == 1
    assert facets(value) == facets(Fraction(num.numerator, 1 << k))
    den = value.denominator
    assert den & (den - 1) == 0 and math.gcd(value.numerator, den) == 1


terminals = st.sampled_from("TLR")


def words(level):
    return st.builds(AddressWord, st.text(alphabet="abc", min_size=level, max_size=level),
                     terminals)


addresses = st.builds(canonicalize, st.integers(min_value=0, max_value=60).flatmap(words))


@settings(deadline=None, max_examples=300)
@given(level=st.integers(min_value=0, max_value=60), data=st.data())
def test_dist_level_and_coords_are_in_lowest_terms(level, data):
    u, v = data.draw(words(level)), data.draw(words(level))
    assert_dyadic(dist_level(u, v, level), level)
    # coords against the fold of sigma it stands for, each step the midpoint
    # of the point and the corner the copy keeps, built by Fraction arithmetic
    p = coords(u)
    want = VERTEX[u.terminal]
    for m in reversed(u.labels):
        v = VERTEX[ANCHOR[m]]
        step = Point2((want.x + v.x) / 2, (want.yc + v.yc) / 2)
        assert facets(sigma(m, want).x) == facets(step.x)
        assert facets(sigma(m, want).yc) == facets(step.yc)
        want = step
    assert facets(p.x) == facets(want.x) and facets(p.yc) == facets(want.yc)


@settings(deadline=None, max_examples=300)
@given(
    x=st.fractions(min_value=0, max_value=1, max_denominator=1 << 40),
    y=st.fractions(min_value=0, max_value=1, max_denominator=1 << 40),
)
def test_sigma_inv_builds_the_fraction(x, y):
    # any rational point in the closed triangle (0 <= yc <= min(x, 1 - x)),
    # not only dyadic ones: the preimage is twice the point minus the corner
    # its copy keeps
    p = Point2(x, y * min(x, 1 - x))
    m, q = sigma_inv(p)
    v = VERTEX[ANCHOR[m]]
    assert facets(q.x) == facets(2 * p.x - v.x)
    assert facets(q.yc) == facets(2 * p.yc - v.yc)


@settings(deadline=None, max_examples=300)
@given(u=addresses, v=addresses, mu=st.sampled_from("abc"), mv=st.sampled_from("abc"))
def test_dist_G_and_tensor_are_in_lowest_terms(u, v, mu, mv):
    assert_dyadic(dist_G(u, v), max(u.level, v.level))
    assert_dyadic(tensor_dist_G(mu, u, mv, v), max(u.level, v.level) + 1)
    assert tensor_dist_G(mu, u, mv, v) == dist_G(prepend(mu, u), prepend(mv, v))


@settings(deadline=None, max_examples=200)
@given(level=st.integers(min_value=0, max_value=4), data=st.data())
def test_dist_oracle_is_in_lowest_terms(level, data):
    u, v = data.draw(words(level)), data.draw(words(level))
    assert_dyadic(dist_oracle(u, v, level), level)


@settings(deadline=None, max_examples=100)
@given(
    s=st.fractions(min_value=0, max_value=1, max_denominator=64),
    depth=st.integers(min_value=2, max_value=10),
    data=st.data(),
)
def test_finality_defect_is_in_lowest_terms(s, depth, data):
    # theta_k(x) moved into its own cell by a drawn tail: within 2^-level of
    # the true theta_k, so the defect is nonzero, and sometimes a breach
    co, x = delta_coalgebra(), delta_point(s)
    tails = data.draw(st.lists(st.tuples(st.text(alphabet="abc", max_size=3), terminals),
                               min_size=depth, max_size=depth))

    def moved(p, n):
        ths = thetas(co, p, n)
        if p != x:
            return ths
        return [canonicalize(AddressWord(t.word.labels + tail, d))
                for t, (tail, d) in zip(ths, tails)]

    # the same walk as finality_check, with the defects built by Fraction
    m1, x1 = co.e(x)
    ths, ths1 = moved(x, depth), moved(x1, depth - 1)
    worst, breach = Fraction(0), None
    for k in range(2, depth + 1):
        num, n = _dist_G_num(ths[k - 1], prepend(m1, ths1[k - 2]))
        if Fraction(num, 1 << n) > Fraction(2, 1 << k):
            breach = (num, n, k)
            break
        worst = max(worst, Fraction(num, 1 << n))
    if breach is None:
        defect = finality_check(co, [x], depth, thetas_fn=moved)
        assert defect == worst
        assert_dyadic(defect, worst.denominator.bit_length() - 1)
    else:
        num, n, k = breach
        with pytest.raises(ValidationError) as exc:
            finality_check(co, [x], depth, thetas_fn=moved)
        assert str(exc.value).endswith(f"(defect {Fraction(num, 1 << n)} > 2^{1 - k})")
