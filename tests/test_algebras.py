
import pytest

from trigasket.algebras import (
    Algebra,
    check_algebra_morphism,
    get_algebra,
    mediate_from_initial,
    validate_algebra,
)
from trigasket.geometry import coords, sigma
from trigasket.spaces import ValidationError, i_space
from trigasket.words import canonicalize, iter_canonical, iter_words, parse_word


def canon(text):
    return canonicalize(parse_word(text))


def fold(alg, w):
    """Reference fold of any spelling: e once per label, innermost first,
    from the marked point of the terminal."""
    p = getattr(alg.space, w.terminal)
    for m in reversed(w.labels):
        p = alg.e(m, p)
    return p


@pytest.mark.parametrize("name", ["gasket-tau", "Y", "I-e"])
def test_builtin_algebras_validate(name):
    get_algebra(name)


def test_get_algebra_unknown():
    with pytest.raises(KeyError):
        get_algebra("nope")


def test_validate_rejects_ungluable_structure_map():
    # e(b, T) must equal e(a, L); identity on the label breaks that
    sp = i_space()
    bad = Algebra(sp, lambda m, p: p, name="identity-ish")
    with pytest.raises(ValidationError):
        validate_algebra(bad)


def test_validate_rejects_moved_marked_point():
    # respects every gluing (all three pairs go to one point) but copy a
    # sends its anchor T to L
    sp = i_space()
    flat = Algebra(sp, lambda m, p: "L", name="flat")
    with pytest.raises(ValidationError, match=r"^flat: e\(a,'T'\) must be the marked point$"):
        validate_algebra(flat)


def test_mediation_fold_order():
    # the innermost (rightmost) label acts first
    alg = get_algebra("gasket-tau")
    p = mediate_from_initial(alg, canon("ba.R"))
    assert p == sigma("b", sigma("a", alg.space.R)) == coords(parse_word("ba.R"))
    assert p != coords(parse_word("ab.R"))


def test_mediation_on_gasket_is_coords():
    alg = get_algebra("gasket-tau")
    for w in iter_canonical(4):
        assert mediate_from_initial(alg, w) == coords(w)


def test_mediation_well_defined_across_representatives():
    """Every spelling of a class folds to the same value, exhaustively to level 5."""
    algs = [get_algebra(n) for n in ("gasket-tau", "Y", "I-e")]
    for level in range(6):
        for w in iter_words(level):
            c = canonicalize(w)
            for alg in algs:
                assert fold(alg, w) == mediate_from_initial(alg, c)


def test_collapse_values():
    y = get_algebra("Y")
    assert mediate_from_initial(y, canon(".T")) == "t"
    assert mediate_from_initial(y, canon(".R")) == "r"
    assert mediate_from_initial(y, canon("aaaa.L")) == "l"
    assert mediate_from_initial(y, canon("ba.R")) == "l"

    i = get_algebra("I-e")
    assert mediate_from_initial(i, canon("bbbb.R")) == "R"
    assert mediate_from_initial(i, canon(".L")) == "L"


def test_morphism_square():
    for name in ("gasket-tau", "Y", "I-e"):
        alg = get_algebra(name)
        # 3 labels times the 123 canonical addresses of levels 0-4
        assert check_algebra_morphism(alg, lambda u: mediate_from_initial(alg, u), 4) == 369


def test_morphism_square_negative_control():
    alg = get_algebra("Y")

    def corrupt(u):
        val = mediate_from_initial(alg, u)
        return "r" if u.text == "a.L" else val

    # b*.T is the class a.L, whose value was corrupted
    with pytest.raises(ValidationError, match=r"Y: square fails at b\*\.T: "):
        check_algebra_morphism(alg, corrupt, 3)
