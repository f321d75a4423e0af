"""Structure maps that consume one gluing step, and folds out of the address space.

An algebra on a space X is a map e taking (label, point of X) to a point of
X. Authors supply e on raw labeled pairs; registration validates that e
respects the gluing identifications and fixes the marked points, which is
exactly what makes the right-to-left fold over an address word independent
of the chosen representative.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .spaces import Point, TriPointedSpace, ValidationError
from .words import ANCHOR, GLUE, CanonicalAddress, LABELS, iter_canonical, prepend


class Algebra(NamedTuple):
    space: TriPointedSpace
    e: Callable[[str, Point], Point]
    name: str = "algebra"


def validate_algebra(alg: Algebra) -> None:
    """Gluing-respect and marked-point preservation, checked once at registration."""
    s, e = alg.space, alg.e
    for (m1, d1), (m2, d2) in GLUE:
        x1, x2 = getattr(s, d1), getattr(s, d2)
        if e(m1, x1) != e(m2, x2):
            raise ValidationError(
                f"{alg.name}: e({m1},{x1!r}) != e({m2},{x2!r}), gluing not respected"
            )
    for m, d in ANCHOR.items():
        x = getattr(s, d)
        if e(m, x) != x:
            raise ValidationError(f"{alg.name}: e({m},{x!r}) must be the marked point")


def mediate_from_initial(alg: Algebra, x: CanonicalAddress) -> Point:
    """The unique structure-respecting map out of the address space, at one point.

    The fold starts at the marked point of the word's terminal and applies e
    once per label, innermost (rightmost) first. Well-definedness (same
    value for every representative of the class) is a consequence of the
    validated invariants and is tested exhaustively.
    """
    w = x.word
    p = getattr(alg.space, w.terminal)
    for m in reversed(w.labels):
        p = alg.e(m, p)
    return p


def check_algebra_morphism(
    alg: Algebra,
    f: Callable[[CanonicalAddress], Point],
    sample_depth: int,
) -> int:
    """Verify f(prepend(m, u)) == e(m, f(u)) over all addresses up to a depth.

    Returns the number of cases checked; raises ValidationError at the first
    case where the square does not commute.
    """
    checked = 0
    for u in iter_canonical(sample_depth):
        fu = f(u)
        for m in LABELS:
            left = f(prepend(m, u))
            right = alg.e(m, fu)
            if left != right:
                raise ValidationError(
                    f"{alg.name}: square fails at {m}*{u.text}: "
                    f"f(g(...))={left!r} but e(m,f(...))={right!r}"
                )
            checked += 1
    return checked


def get_algebra(name: str) -> Algebra:
    """Built-in algebras by name: gasket-tau, Y, I-e."""
    if name == "gasket-tau":
        from .geometry import gasket_space, sigma

        alg = Algebra(gasket_space(), lambda m, p: sigma(m, p), name="gasket-tau")
    elif name == "Y":
        from .counterexamples import y_algebra

        alg = y_algebra()
    elif name == "I-e":
        from .counterexamples import i_algebra

        alg = i_algebra()
    else:
        raise KeyError(f"no built-in algebra {name!r}")
    validate_algebra(alg)
    return alg
