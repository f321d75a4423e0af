from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from trigasket.coalgebras import (
    Coalgebra,
    finality_check,
    get_coalgebra,
    theta,
    thetas,
    unfold,
    validate_coalgebra,
)
from trigasket.counterexamples import APEX, delta_point
from trigasket.geometry import VERTEX, coords
from trigasket.metric import dist_G
from trigasket.spaces import ValidationError, i_space
from trigasket.words import (
    AddressWord,
    canonical_at,
    canonicalize,
    corner_digits,
    count_canonical,
    iter_canonical,
    parse_word,
)


def canon(text):
    return canonicalize(parse_word(text))


@pytest.mark.parametrize("name", ["gasket-sigma", "delta"])
def test_builtin_coalgebras_validate(name):
    get_coalgebra(name)


def test_get_coalgebra_unknown():
    with pytest.raises(KeyError):
        get_coalgebra("nope")


def test_validate_rejects_wrong_corner_behavior():
    sp = i_space()
    bad = Coalgebra(sp, lambda p: ("a", p), name="stuck-at-a")
    with pytest.raises(ValidationError):
        validate_coalgebra(bad)


def test_unfold_trace():
    co = get_coalgebra("delta")
    labels, rest = unfold(co, delta_point(Fraction(1, 2)), 4)
    assert labels == "bccc"
    assert rest == delta_point(1)
    assert unfold(co, APEX, 3) == ("aaa", APEX)


def test_unfold_rejects_negative_depth():
    with pytest.raises(ValueError, match="^depth must be nonnegative$"):
        unfold(get_coalgebra("delta"), APEX, -1)


def test_theta_validates_the_trace_of_a_structure_map():
    # a user's structure map can emit any label: unfold rejects the first one
    # that is not a, b or c, naming the coalgebra, the start and the step
    co = Coalgebra(i_space(), lambda p: ("d", "R") if p == "L" else ("a", p), name="bad-label")
    first = "^bad-label: unfolding L failed at step 1: bad label 'd'$"
    with pytest.raises(ValueError, match=first):
        theta(co, "L", 2)
    with pytest.raises(ValueError, match=first):
        theta(co, "L", 1)
    with pytest.raises(ValueError, match=first):
        thetas(co, "L", 2)
    late = Coalgebra(i_space(), lambda p: ("d", "R") if p == "L" else ("a", "L"), name="late")
    with pytest.raises(ValueError, match="^late: unfolding T failed at step 2: bad label 'd'$"):
        thetas(late, "T", 3)
    # a label of another type is compared, not hashed
    listed = Coalgebra(i_space(), lambda p: (["a"], p), name="listed")
    with pytest.raises(ValueError, match=r"^listed: unfolding T failed at step 1: bad label \['a'\]$"):
        unfold(listed, "T", 1)


def test_thetas_anchors_character_prefixes_of_a_longer_trace():
    # a label of two characters would make a trace longer than the depth;
    # unfold rejects it at the step that returned it
    co = Coalgebra(i_space(), lambda p: ("ab", p), name="long-label")
    with pytest.raises(ValueError, match="^long-label: unfolding L failed at step 1: bad label 'ab'$"):
        thetas(co, "L", 2)
    with pytest.raises(ValueError, match="^long-label: unfolding L failed at step 1: bad label 'ab'$"):
        unfold(co, "L", 1)


def test_theta_requires_positive_depth():
    co = get_coalgebra("delta")
    with pytest.raises(ValueError):
        theta(co, APEX, 0)


def thetas_sample(name):
    """Corners, a seam point and a seeded sample of each built-in coalgebra's space."""
    rng = Random(14)
    if name == "gasket-sigma":
        canon6 = list(iter_canonical(6))
        pts = [VERTEX["T"], VERTEX["L"], VERTEX["R"], coords(parse_word("b.R"))]
        return pts + [coords(rng.choice(canon6)) for _ in range(20)]
    pts = [APEX, delta_point(0), delta_point(1), delta_point(Fraction(1, 2))]
    dens = [rng.randint(1, 4096) for _ in range(20)]
    return pts + [delta_point(Fraction(rng.randint(0, d), d)) for d in dens]


@pytest.mark.parametrize("name", ["gasket-sigma", "delta"])
def test_thetas_matches_theta(name):
    co = get_coalgebra(name)
    for x in thetas_sample(name):
        assert thetas(co, x, 14) == [theta(co, x, k) for k in range(1, 15)]


@st.composite
def coalgebra_points(draw):
    """A built-in coalgebra and a point of its space: the plane image of a
    canonical address of level <= 8, or a rational on the fold's interval."""
    if draw(st.booleans()):
        i = draw(st.integers(0, count_canonical(8) - 1))
        return "gasket-sigma", coords(canonical_at(i))
    den = draw(st.integers(1, 4096))
    return "delta", delta_point(Fraction(draw(st.integers(0, den)), den))


@given(coalgebra_points(), st.integers(1, 16))
def test_thetas_is_theta_at_each_depth(point, n):
    name, x = point
    co = get_coalgebra(name)
    got = thetas(co, x, n)
    assert got == [theta(co, x, k) for k in range(1, n + 1)]
    # each word carries the digits of its own labels
    assert [t.word.toward for t in got] == [corner_digits(t.word.labels) for t in got]


def test_thetas_requires_positive_depth():
    co = get_coalgebra("delta")
    with pytest.raises(ValueError):
        thetas(co, APEX, 0)


def test_theta_on_finitely_addressed_point():
    """The trace prefix is exact; the anchored address may lag one junction step."""
    co = get_coalgebra("gasket-sigma")
    p = coords(parse_word("ba.R"))
    labels, _ = unfold(co, p, 2)
    assert labels == "ba"
    assert theta(co, p, 2) == canon("a.L")  # anchor turns ba into ba.T ~ a.L
    for n in range(3, 10):
        assert theta(co, p, n) == canon("ba.R")


def test_gasket_sigma_theta_recovers_the_address():
    """Past its level, a finitely addressed point's approximant is its address.

    The limit map of gasket-sigma is exact_address, an isometry for the
    gasket's address metric. At n = level the last label's anchor stands in
    for the terminal, so the claim is for n above the level only.
    """
    co = get_coalgebra("gasket-sigma")
    for w in iter_canonical(5):
        p = coords(w)
        for n in range(w.level + 1, w.level + 4):
            assert theta(co, p, n) == w


def test_theta_corner_points_are_constant():
    co = get_coalgebra("gasket-sigma")
    for corner, text in ((VERTEX["T"], ".T"), (VERTEX["L"], ".L"), (VERTEX["R"], ".R")):
        for n in (1, 4, 9):
            assert theta(co, corner, n) == canon(text)


def test_theta_representative_independence_past_seam(delta_alt):
    """Two spellings of the seam point disagree only at the seam step itself."""
    primary = get_coalgebra("delta")
    alt = delta_alt
    half = delta_point(Fraction(1, 2))
    assert theta(primary, half, 1).text == ".L"
    assert theta(alt, half, 1).text == ".R"
    # both seam-depth variants stay within the certified 2^-1 modulus
    limit = canon("b.R")
    assert dist_G(theta(primary, half, 1), limit) <= Fraction(1, 2)
    assert dist_G(theta(alt, half, 1), limit) <= Fraction(1, 2)
    for n in range(2, 12):
        a = theta(primary, half, n)
        assert a == theta(alt, half, n)
        assert a == limit


def test_limit_point_modulus():
    """theta_n lies within 2^-n of every later approximant of the same point."""
    co = get_coalgebra("delta")
    ths = thetas(co, delta_point(Fraction(2, 7)), 10)
    for n in range(1, 10):
        for m in range(n, 11):
            assert dist_G(ths[n - 1], ths[m - 1]) <= Fraction(1, 2**n)


def test_finality_defect_is_zero():
    co = get_coalgebra("delta")
    sample = [APEX, delta_point(Fraction(1, 3)), delta_point(Fraction(2, 7))]
    assert finality_check(co, sample, depth=10) == 0


def test_finality_rejects_corrupted_candidate():
    co = get_coalgebra("delta")
    flip = {"a": "b", "b": "c", "c": "a"}

    def bad(p, n):
        out = []
        for t in thetas(co, p, n):
            w = t.word
            if w.level:
                t = canonicalize(AddressWord(flip[w.labels[0]] + w.labels[1:], w.terminal))
            out.append(t)
        return out

    # 1/3 is immune: its trace is all b's, so theta is the level-0 address
    # ".L" at every depth and the flip never fires
    assert finality_check(co, [delta_point(Fraction(1, 3))], depth=8, thetas_fn=bad) == 0
    # 2/5 <-> 3/5 cycles through both expanding branches, so its thetas have
    # positive level and the flip produces a genuinely different address
    with pytest.raises(ValidationError, match=r"delta: finality square breached at x="):
        finality_check(
            co,
            [delta_point(Fraction(1, 2)), delta_point(Fraction(2, 5))],
            depth=8,
            thetas_fn=bad,
        )


def test_finality_bound_is_two_to_one_minus_k():
    """A defect of exactly 2^(1-k) at every depth k passes; 2^(2-k) breaches."""
    co = get_coalgebra("delta")
    x = delta_point(Fraction(1, 4))  # e(x) = (b, 0), and every theta of 0 is .L

    def off_by(shift):
        # theta_k(x) moved to b^(k-shift).R, at distance 2^(shift-k) from .L
        def fn(p, n):
            if p != x:
                return thetas(co, p, n)
            return [
                canonicalize(AddressWord("b" * max(k - shift, 0), "R")) for k in range(1, n + 1)
            ]

        return fn

    assert finality_check(co, [x], depth=8, thetas_fn=off_by(1)) == Fraction(1, 2)
    with pytest.raises(ValidationError, match=r"k=2: \.R vs \.L \(defect 1 > 2\^-1\)"):
        finality_check(co, [x], depth=8, thetas_fn=off_by(2))
