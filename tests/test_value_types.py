"""The value types' contract: repr text (error messages embed it), a hash
equal to the hash of the field tuple (so set and dict order under a fixed
PYTHONHASHSEED is stable), equality and order within a type, fields that
cannot be assigned, and the constructors' keyword names and messages."""

from fractions import Fraction

import pytest

from trigasket.acceptance import CriterionResult
from trigasket.algebras import Algebra
from trigasket.coalgebras import Coalgebra
from trigasket.counterexamples import APEX, DeltaPoint, NonLipschitzRow, delta_point
from trigasket.geometry import Point2
from trigasket.metric import OracleTable
from trigasket.numerics import RadicalSum
from trigasket.spaces import ISOMETRIC, MapWitness, ValidationError, discrete_space
from trigasket.words import AddressWord, CanonicalAddress, parse_word

SPACE = discrete_space("Y", "t", "l", "r")
SPACE_REPR = (
    f"TriPointedSpace(name='Y', dist={SPACE.dist!r}, T='t', L='l', R='r', points=('t', 'l', 'r'))"
)


def _ident(x):
    return x


def _step(x):
    return "a", x


def _act(m, x):
    return x


HALF, ZERO, ONE = Fraction(1, 2), Fraction(0), Fraction(1)

# (value, its field tuple, its repr)
CASES = [
    (AddressWord("ab", "T"), ("ab", "T"), "AddressWord(labels='ab', terminal='T')"),
    (
        CanonicalAddress(AddressWord("aa", "L")),
        (AddressWord("aa", "L"),),
        "CanonicalAddress(word=AddressWord(labels='aa', terminal='L'))",
    ),
    (APEX, (None,), "DeltaPoint(s=None)"),
    (delta_point("1/3"), (Fraction(1, 3),), "DeltaPoint(s=Fraction(1, 3))"),
    (Point2(HALF, ZERO), (HALF, ZERO), "Point2(x=Fraction(1, 2), yc=Fraction(0, 1))"),
    (
        RadicalSum.of(0, (1, 2)),
        (ZERO, ((ONE, Fraction(2)),)),
        "RadicalSum(rational=Fraction(0, 1), terms=((Fraction(1, 1), Fraction(2, 1)),))",
    ),
    (
        CriterionResult(1, "x", True, "d"),
        (1, "x", True, "d"),
        "CriterionResult(number=1, name='x', passed=True, detail='d')",
    ),
    (
        NonLipschitzRow(1, HALF, ONE, HALF, ONE, Fraction(2), ZERO, ZERO),
        (1, HALF, ONE, HALF, ONE, Fraction(2), ZERO, ZERO),
        "NonLipschitzRow(n=1, x=Fraction(1, 2), y=Fraction(1, 1), dist_domain=Fraction(1, 2), "
        "dist_image=Fraction(1, 1), ratio=Fraction(2, 1), x_limit_defect=Fraction(0, 1), "
        "y_limit_defect=Fraction(0, 1))",
    ),
    (SPACE, (SPACE.name, SPACE.dist, "t", "l", "r", ("t", "l", "r")), SPACE_REPR),
    (
        Coalgebra(SPACE, _step),
        (SPACE, _step, "coalgebra"),
        f"Coalgebra(space={SPACE_REPR}, e={_step!r}, name='coalgebra')",
    ),
    (
        Algebra(SPACE, _act),
        (SPACE, _act, "algebra"),
        f"Algebra(space={SPACE_REPR}, e={_act!r}, name='algebra')",
    ),
    # a built table holds a dict and a list, which have no hash; stand-ins
    # with a hash pin the record's own
    (
        OracleTable(((AddressWord("", "T"), 0),), ((0,),)),
        (((AddressWord("", "T"), 0),), ((0,),)),
        "OracleTable(class_of=((AddressWord(labels='', terminal='T'), 0),), dist=((0,),))",
    ),
    (
        MapWitness(_ident, SPACE, SPACE, ISOMETRIC),
        (_ident, SPACE, SPACE, ISOMETRIC, "map"),
        f"MapWitness(f={_ident!r}, domain={SPACE_REPR}, codomain={SPACE_REPR}, "
        f"claimed_class={ISOMETRIC!r}, name='map')",
    ),
]
IDS = [type(v).__name__ for v, _, _ in CASES]


@pytest.mark.parametrize("value, fields, text", CASES, ids=IDS)
def test_repr_and_hash(value, fields, text):
    assert repr(value) == text
    assert hash(value) == hash(fields)


@pytest.mark.parametrize("value, fields, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(value, fields, text):
    name = getattr(value, "_fields", ("labels",))[0]
    with pytest.raises(AttributeError):
        setattr(value, name, fields[0])
    with pytest.raises(AttributeError):
        value.extra = 1


def test_address_word_equals_only_words():
    w = AddressWord("ab", "T")
    assert w == AddressWord("ab", "T") and w != AddressWord("ab", "L")
    assert w != ("ab", "T")
    with pytest.raises(TypeError):
        w < ("ab", "T")


def test_order_is_the_field_order():
    texts = ["b.T", "a.L", "a.T", ".R", "ab.T", "a.R"]
    words = [parse_word(t) for t in texts]
    assert sorted(words) == [AddressWord(*k) for k in sorted((w.labels, w.terminal) for w in words)]
    u, v = AddressWord("a", "L"), AddressWord("a", "T")
    assert (u < v, u <= v, u > v, u >= v) == (True, True, False, False)
    assert (u <= u, u >= u, u < u) == (True, True, False)
    c = [CanonicalAddress(parse_word(t)) for t in ("b.R", "a.L", ".T")]
    assert [x.text for x in sorted(c)] == [".T", "a.L", "b.R"]


def test_radical_sum_not_equal_is_exact():
    # tuple's own __ne__ would compare the field tuples with the operand
    one = RadicalSum.of(1)
    assert not (one != Fraction(1))
    assert not (one != 1)
    assert not (one != RadicalSum.of(1))
    assert RadicalSum.of(0, (1, 2)) != RadicalSum.of(0, (1, 3))
    assert RadicalSum.of(0, (1, 2)) != 1


def test_constructors_take_their_field_names():
    w = AddressWord(labels="ba", terminal="L")
    assert CanonicalAddress(word=w).word is w
    assert DeltaPoint(s=HALF) == delta_point(HALF)
    m = MapWitness(f=_ident, domain=SPACE, codomain=SPACE, claimed_class=ISOMETRIC, name="id")
    assert m.name == "id"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: AddressWord("ad", "T"), ValueError, "bad label in 'ad'"),
        (lambda: AddressWord("ab", "X"), ValueError, "bad terminal 'X'"),
        (lambda: CanonicalAddress(parse_word("ba.T")), ValueError, "ba.T carries chain padding"),
        (lambda: CanonicalAddress(parse_word("c.L")), ValueError, "c.L has a rewrite-source tail"),
        (lambda: DeltaPoint(Fraction(3, 2)), ValueError, "segment coordinate must lie in [0, 1]"),
        (
            lambda: MapWitness(lambda p: "l", SPACE, SPACE, ISOMETRIC, name="flat"),
            ValidationError,
            "flat: does not preserve mark T",
        ),
        (lambda: AddressWord("ab", ""), ValueError, "bad terminal ''"),
        (lambda: AddressWord("ab", "LR"), ValueError, "bad terminal 'LR'"),
    ],
)
def test_constructor_messages(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message
